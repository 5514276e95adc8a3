/**
 * @file
 * serve_offline: one ServingEngine (Llama-3-8B TP-2 on A100, Sarathi
 * chunk 2048, POD backend, watermark KV with recompute preemption,
 * coarse memo buckets) serving a long trace of short prompts that is
 * all queued at t=0. The benchmark drives Submit/Step/Report itself
 * and times each call. The scheduler scan and the metrics layer carry
 * the host cost; the kernel simulator runs only on the few hundred
 * attention memo misses.
 *
 * One item is one complete serving run of the seeded trace on a fresh
 * engine (the lazy memo fill is paid inside every item, as every user
 * pays it). Items repeat until the window closes; every repeat must
 * reproduce the first item's simulated report bit for bit.
 */
#include <algorithm>

#include "common/rng.h"
#include "serve/trace.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

using pod::serve::Request;
using pod::serve::ServingEngine;

constexpr int kRequests = 64000;
constexpr int kMinSetups = 7;

std::vector<Request>
OfflineTrace(uint64_t seed)
{
    pod::serve::WorkloadSpec spec;
    spec.name = "offline-short";
    spec.prefill_mean = 768.0;
    spec.prefill_stddev = 512.0;
    spec.prefill_min = 64;
    spec.prefill_max = 4096;
    spec.decode_mean = 300.0;
    spec.decode_stddev = 200.0;
    spec.decode_min = 16;
    spec.decode_max = 1024;
    pod::Rng rng(seed);
    auto trace = pod::serve::GenerateTrace(spec, kRequests, 0.0, rng);
    std::sort(trace.begin(), trace.end(), pod::serve::ArrivalOrder);
    return trace;
}

/** Build an engine and submit the whole trace; `timed` (optional)
 *  receives the scheduler decorator, `rec` the submit span. */
std::unique_ptr<ServingEngine>
SetUp(uint64_t seed, TimedScheduler** timed, SpanRecorder* rec,
      double* submit_seconds)
{
    std::vector<Request> trace = OfflineTrace(seed);
    std::unique_ptr<pod::serve::Scheduler> scheduler =
        std::make_unique<pod::serve::SarathiScheduler>(kChunk);
    if (timed != nullptr) {
        auto wrapper = std::make_unique<TimedScheduler>(std::move(scheduler),
                                                        rec, false);
        *timed = wrapper.get();
        scheduler = std::move(wrapper);
    }
    auto engine =
        std::make_unique<ServingEngine>(ReplicaConfig(), std::move(scheduler));
    double t0 = Now();
    for (const Request& r : trace) engine->Submit(r);
    double t1 = Now();
    if (rec != nullptr) rec->Add("serve.submit", t0, t1, -1);
    if (submit_seconds != nullptr) *submit_seconds = t1 - t0;
    return engine;
}

/** Host timings of one untraced item, in thread CPU seconds. */
struct ItemTiming
{
    double timed_seconds = 0.0;  ///< Step loop plus Report().
    std::vector<double> digest;
};

ItemTiming
RunItem(RunResult& result, ServingEngine& engine, Samples& step_seconds)
{
    ItemTiming item;
    long completed = 0;
    const double start = ThreadCpu();
    while (!engine.Done()) {
        double t0 = ThreadCpu();
        completed += engine.Step().completed;
        step_seconds.Add(ThreadCpu() - t0);
    }
    pod::serve::MetricsReport report = engine.Report();
    item.timed_seconds = ThreadCpu() - start;
    CheckRequests(result, engine.States(), completed);
    item.digest = Digest(report);
    item.digest.push_back(double(engine.AttnCacheHits()));
    item.digest.push_back(double(engine.AttnCacheMisses()));
    return item;
}

void
MeasureUntraced(const Options& options, RunResult& result)
{
    Samples setup;
    ItemLatencies steps;
    Samples rates;  // requests per CPU second, one per item
    long finished = 0;
    std::vector<double> first;
    const double start = Now();
    while (first.empty() || Now() - start < options.seconds) {
        double t0 = ThreadCpu();
        auto engine = SetUp(options.seed, nullptr, nullptr, nullptr);
        setup.Add(ThreadCpu() - t0);
        ItemTiming item = RunItem(result, *engine, steps.Current());
        steps.EndItem();
        rates.Add(kRequests / item.timed_seconds);
        finished += kRequests;
        if (first.empty()) {
            first = item.digest;
        } else {
            result.Check(item.digest == first,
                         "repeated serving run is not bit-identical");
        }
    }
    while (setup.Count() < kMinSetups) {
        double t0 = ThreadCpu();
        auto engine = SetUp(options.seed, nullptr, nullptr, nullptr);
        setup.Add(ThreadCpu() - t0);
    }
    PutItemRate(result, rates, finished);
    steps.Put(result);
    result.Put("setup_s", setup.Median(), "s", setup.Count());
    result.Put("peak_rss_mb", PeakRssMb(), "MB");
}

void
MeasureTraced(const Options& options, RunResult& result)
{
    // Untraced items for half the window, at least two: the reference
    // report and the untraced cost of one warm item (the first item of
    // a process also pays for growing the heap).
    Samples untraced_seconds, unused;
    std::vector<double> reference;
    const double start = Now();
    for (int n = 0; n < 2 || Now() - start < options.seconds / 2; ++n) {
        auto engine = SetUp(options.seed, nullptr, nullptr, nullptr);
        ItemTiming item = RunItem(result, *engine, unused);
        if (n > 0) untraced_seconds.Add(item.timed_seconds);
        reference = item.digest;
    }

    SpanRecorder rec;
    TimedScheduler* sched = nullptr;
    double submit_seconds = 0.0;
    auto engine = SetUp(options.seed, &sched, &rec, &submit_seconds);
    Samples step_us, hit_us, miss_us, hit_other;
    double steps_total = 0.0, miss_other = 0.0, kv_util = 0.0;
    long misses = 0, progressed = 0, completed = 0;
    const double cpu_start = ThreadCpu();
    const double t_start = Now();
    while (!engine->Done()) {
        long misses_before = engine->AttnCacheMisses();
        double sched_before = sched->total_seconds;
        double t0 = Now();
        int64_t id = rec.Open("serve.step", t0, -1, engine->Iterations());
        sched->parent = id;
        pod::serve::StepResult r = engine->Step();
        double t1 = Now();
        rec.Close(id, t1);
        completed += r.completed;
        double d = t1 - t0;
        double other = d - (sched->total_seconds - sched_before);
        step_us.Add(d * 1e6);
        steps_total += d;
        if (engine->AttnCacheMisses() != misses_before) {
            ++misses;
            miss_us.Add(d * 1e6);
            miss_other += other;
        } else {
            hit_us.Add(d * 1e6);
            hit_other.Add(other);
        }
        if (r.progressed) {
            ++progressed;
            kv_util += r.kv_utilization;
        }
    }
    double t_report = Now();
    pod::serve::MetricsReport report = engine->Report();
    double t_end = Now();
    const double traced_cpu = ThreadCpu() - cpu_start;
    rec.Add("serve.report", t_report, t_end, -1);
    CheckRequests(result, engine->States(), completed);
    std::vector<double> digest = Digest(report);
    digest.push_back(double(engine->AttnCacheHits()));
    digest.push_back(double(engine->AttnCacheMisses()));
    result.Check(digest == reference,
                 "traced serving report differs from the untraced run");

    const double traced = t_end - t_start;
    const double untraced = untraced_seconds.Median();
    result.Put("trace.overhead_share", (traced_cpu - untraced) / untraced,
               "share", static_cast<long>(untraced_seconds.Count()));

    // Self-time split of the traced item's timed section.
    double sched_total = sched->total_seconds;
    double report_s = t_end - t_report;
    double miss_excess =
        std::max(0.0, miss_other - misses * hit_other.Median());
    double engine_s = std::max(0.0, steps_total - sched_total - miss_excess);
    double bench = std::max(0.0, traced - steps_total - report_s);
    result.Put("trace.self_share.attn_memo_miss", miss_excess / traced, "share");
    result.Put("trace.self_share.serve_scheduler", sched_total / traced,
               "share");
    result.Put("trace.self_share.serve_engine", engine_s / traced, "share");
    result.Put("trace.self_share.serve_metrics", report_s / traced, "share");
    result.Put("trace.self_share.bench", bench / traced, "share");

    result.Put("serve.step_us.p50", step_us.Median(), "us", step_us.Count());
    result.Put("serve.step_us.p99", step_us.Pct(99.0), "us", step_us.Count());
    result.Put("serve.step_miss_us", miss_us.Median(), "us", miss_us.Count());
    result.Put("serve.step_hit_us", hit_us.Median(), "us", hit_us.Count());
    result.Put("serve.attn_miss_time_share", miss_excess / steps_total,
               "share", misses);
    const Samples& next = sched->next_seconds;
    result.Put("serve.scheduler_next_us.p50", next.Median() * 1e6, "us",
               next.Count());
    result.Put("serve.scheduler_next_us.p99", next.Pct(99.0) * 1e6, "us",
               next.Count());
    result.Put("serve.scheduler_share", sched_total / steps_total, "share");
    double batches = std::max<long>(1, sched->batches);
    result.Put("serve.batch_tokens_mean", sched->batch_tokens / batches,
               "count", sched->batches);
    result.Put("serve.batch_decodes_mean", sched->batch_decodes / batches,
               "count", sched->batches);
    result.Put("serve.admissions", double(sched->admissions), "count");
    result.Put("serve.preemptions", double(sched->preemptions), "count");
    result.Put("serve.restores", double(sched->restores), "count");
    result.Put("serve.kv_util_mean",
               progressed > 0 ? kv_util / progressed : 0.0, "share",
               progressed);
    result.Put("serve.report_us", report_s * 1e6, "us");
    result.Put("serve.submit_us", submit_seconds / kRequests * 1e6, "us",
               kRequests);
    PutSimulatedServe(result, report, engine->AttnCacheHits(),
                      engine->AttnCacheMisses());
    result.spans = rec.Spans();
}

}  // namespace

RunResult
RunServeOffline(const Options& options)
{
    RunResult result;
    if (options.trace) {
        MeasureTraced(options, result);
    } else {
        MeasureUntraced(options, result);
    }
    return result;
}

}  // namespace perfbench
