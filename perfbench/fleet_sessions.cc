/**
 * @file
 * fleet_sessions: a ClusterEngine of 4 identical replicas serving the
 * SessionWorkloadSpec::Chat() multi-turn trace at 50% system-prompt
 * share, with Poisson session starts near fleet capacity, the prefix
 * cache on over watermark KV with recompute preemption, the
 * prefix-affinity router, and min(2, nproc) pool threads with the
 * caller included. It is the only workload that runs routing, the
 * work-stealing barrier and the radix prefix cache.
 *
 * ClusterEngine::Run is one call, so the per-operation latency is the
 * host CPU time of one routing epoch: the process CPU time between
 * consecutive calls into the injected Router, which spans one
 * plan/advance/barrier/route round of the run loop. A pass-through
 * router wrapper reads the clock once per call to measure it. Routing
 * runs after the barrier, while the pool threads are parked, so their
 * CPU time is up to date when it is read.
 */
#include <algorithm>
#include <map>
#include <thread>

#include "cluster/cluster_engine.h"
#include "common/rng.h"
#include "serve/trace.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

using pod::cluster::ClusterEngine;
using pod::cluster::ClusterMetricsReport;
using pod::serve::Request;

constexpr int kReplicas = 4;
constexpr int kSessions = 1000;
/** Session starts per second: queueing shows in TTFT p99 (~0.23 s vs
 *  ~36 ms p50), and the pool threads stay busy enough between routing
 *  barriers that wake-up latency does not dominate an epoch. */
constexpr double kSessionsPerSecond = 12.0;
constexpr int kMinSetups = 7;
/**
 * Traces per untimed run: items serve them in turn, in whole cycles.
 * One trace's host cost per request differs by up to ±10% between
 * seeds; the run's median over four traces varies about half as much.
 */
constexpr int kTraces = 4;

/** Generator seed of trace `k` of the workload seed. */
uint64_t
TraceSeed(uint64_t seed, int k)
{
    return seed * kTraces + static_cast<uint64_t>(k);
}

std::vector<Request>
SessionTrace(uint64_t seed)
{
    pod::serve::SessionWorkloadSpec spec =
        pod::serve::SessionWorkloadSpec::Chat();
    spec.share_ratio = 0.5;
    pod::Rng rng(seed);
    return pod::serve::GenerateSessionTrace(spec, kSessions,
                                            kSessionsPerSecond, rng);
}

/**
 * Two executing threads (the caller and one worker), or one on a
 * single-CPU host. That is enough to run the work-stealing barrier.
 * With one thread per CPU of a shared 4-vCPU host, every routing
 * barrier waited on whichever vCPU the host had descheduled: run
 * medians swung by a third between quiet and busy periods, against
 * about 5% for the single-threaded workloads.
 */
int
PoolThreads()
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(std::min(2u, hw));
}

/** Pass-through Router that stamps the process CPU clock on every call
 *  and, when a recorder is set, records the call as a span. */
class EpochRouter : public pod::cluster::Router
{
  public:
    EpochRouter(std::unique_ptr<pod::cluster::Router> inner,
                SpanRecorder* recorder)
        : inner_(std::move(inner)), recorder_(recorder)
    {
    }

    int Route(const Request& request,
              const std::vector<pod::serve::ReplicaSnapshot>& replicas) override
    {
        stamps.push_back(ProcessCpu());
        double t0 = Now();
        int pick = inner_->Route(request, replicas);
        if (recorder_ != nullptr) {
            double t1 = Now();
            recorder_->Add("cluster.route", t0, t1, parent, request.id);
            route_seconds.Add(t1 - t0);
        }
        return pick;
    }

    void Reset() override { inner_->Reset(); }
    std::string Name() const override { return inner_->Name(); }

    std::vector<double> stamps;
    Samples route_seconds;
    int64_t parent = -1;

  private:
    std::unique_ptr<pod::cluster::Router> inner_;
    SpanRecorder* recorder_;
};

/** One constructed fleet plus the trace it will serve. */
struct Fleet
{
    std::vector<Request> trace;
    std::unique_ptr<ClusterEngine> engine;
    EpochRouter* router = nullptr;
    std::vector<TimedScheduler*> schedulers;  ///< Empty unless wrapped.
};

/**
 * Build a fleet. With `wrap`, every replica's scheduler is wrapped in
 * a TimedScheduler; `recorders` (one per replica, optional) receive
 * their spans, and `audit` turns on the token accounting.
 */
std::unique_ptr<Fleet>
SetUp(uint64_t seed, int threads, bool wrap, bool audit,
      std::vector<SpanRecorder>* recorders, SpanRecorder* route_recorder)
{
    auto fleet = std::make_unique<Fleet>();
    fleet->trace = SessionTrace(seed);
    pod::serve::ServingConfig replica = ReplicaConfig();
    replica.prefix_cache_enabled = true;
    // 30% of HBM for weights + KV (~16 GB of KV per GPU): the prefix
    // cache fills within the trace, so it serves hits and evicts.
    replica.memory_fraction = 0.3;
    auto config = pod::cluster::ClusterConfig::Homogeneous(replica, kReplicas);
    config.seed = seed;
    Fleet* raw = fleet.get();
    auto make_scheduler = [raw, wrap, audit, recorders](int index)
        -> std::unique_ptr<pod::serve::Scheduler> {
        auto inner = std::make_unique<pod::serve::SarathiScheduler>(kChunk);
        if (!wrap) return inner;
        SpanRecorder* rec =
            recorders != nullptr ? &(*recorders)[index] : nullptr;
        auto timed =
            std::make_unique<TimedScheduler>(std::move(inner), rec, audit);
        if (raw->schedulers.size() <= static_cast<size_t>(index)) {
            raw->schedulers.resize(index + 1, nullptr);
        }
        raw->schedulers[index] = timed.get();
        return timed;
    };
    auto router = std::make_unique<EpochRouter>(
        pod::cluster::MakeRouter("prefix-affinity"), route_recorder);
    fleet->router = router.get();
    fleet->engine = std::make_unique<ClusterEngine>(
        std::move(config), make_scheduler, std::move(router), threads);
    return fleet;
}

/** Simulated fleet outputs, flattened for bit-exact comparison. */
std::vector<double>
FleetDigest(const ClusterMetricsReport& report)
{
    std::vector<double> digest = Digest(report.fleet);
    digest.push_back(report.request_imbalance_cv);
    digest.push_back(report.token_imbalance_cv);
    digest.push_back(double(report.attn_cache_hits));
    digest.push_back(double(report.attn_cache_misses));
    for (const auto& u : report.utilization) {
        digest.push_back(u.requests_routed);
        digest.push_back(u.tokens_processed);
        digest.push_back(u.kv_peak);
        digest.push_back(u.kv_mean);
    }
    return digest;
}

/** Output checks shared by every fleet run. */
void
CheckFleet(RunResult& result, const Fleet& fleet, size_t submitted)
{
    size_t served = 0;
    for (int r = 0; r < fleet.engine->NumReplicas(); ++r) {
        const auto& states = fleet.engine->Replica(r).States();
        CheckRequests(result, states, -1);
        served += states.size();
    }
    result.Check(served == submitted,
                 "fleet served " + std::to_string(served) + " of " +
                     std::to_string(submitted) + " requests");
}

/**
 * Token accounting on an audited run: each request's prefill credits
 * (executed chunks plus prefix-cache hits) equal its prompt plus the
 * context recompute preemptions made it rebuild, and per replica the
 * credits sum to prefill_tokens_processed + prefix_tokens_saved.
 */
void
CheckTokenAccounting(RunResult& result, const Fleet& fleet,
                     const ClusterMetricsReport& report)
{
    for (int r = 0; r < fleet.engine->NumReplicas(); ++r) {
        const auto& states = fleet.engine->Replica(r).States();
        const TimedScheduler& sched = *fleet.schedulers[r];
        long credited_sum = 0;
        for (size_t i = 0; i < states.size(); ++i) {
            long credited = i < sched.credited.size() ? sched.credited[i] : 0;
            long lost = i < sched.lost.size() ? sched.lost[i] : 0;
            credited_sum += credited;
            result.Check(credited == states[i].PrefillTarget() + lost,
                         "prefill accounting of request " +
                             std::to_string(states[i].request.id));
        }
        const auto& rep = report.per_replica[r];
        result.Check(credited_sum == rep.prefill_tokens_processed +
                                         rep.prefix_tokens_saved,
                     "replica " + std::to_string(r) +
                         " prefill processed + saved != credited");
    }
}

/** Share of follow-up turns routed to the replica that served the
 *  session's previous turn (simulated). */
double
AffinityShare(const ClusterEngine& engine, long* follow_ups)
{
    std::map<std::pair<int, int>, int> replica_of;  // (session, turn)
    for (int r = 0; r < engine.NumReplicas(); ++r) {
        for (const auto& s : engine.Replica(r).States()) {
            replica_of[{s.request.session_id, s.request.turn}] = r;
        }
    }
    long affine = 0;
    *follow_ups = 0;
    for (const auto& [key, replica] : replica_of) {
        if (key.first < 0 || key.second == 0) continue;
        auto prev = replica_of.find({key.first, key.second - 1});
        if (prev == replica_of.end()) continue;
        ++*follow_ups;
        affine += prev->second == replica ? 1 : 0;
    }
    return *follow_ups > 0 ? double(affine) / *follow_ups : 0.0;
}

/** Run one fleet, returning its report and Run()'s process CPU time. */
ClusterMetricsReport
RunFleet(RunResult& result, Fleet& fleet, double* seconds, Samples* epochs)
{
    size_t submitted = fleet.trace.size();
    double t0 = ProcessCpu();
    ClusterMetricsReport report = fleet.engine->Run(std::move(fleet.trace));
    *seconds = ProcessCpu() - t0;
    if (epochs != nullptr) {
        const auto& st = fleet.router->stamps;
        for (size_t i = 1; i < st.size(); ++i) epochs->Add(st[i] - st[i - 1]);
    }
    CheckFleet(result, fleet, submitted);
    return report;
}

/** The untimed 1-thread audited reference run; returns its digest. */
std::vector<double>
ReferenceRun(const Options& options, RunResult& result)
{
    auto fleet = SetUp(TraceSeed(options.seed, 0), 1, true, true, nullptr,
                       nullptr);
    double unused = 0.0;
    ClusterMetricsReport report = RunFleet(result, *fleet, &unused, nullptr);
    CheckTokenAccounting(result, *fleet, report);
    return FleetDigest(report);
}

void
MeasureUntraced(const Options& options, RunResult& result)
{
    const int threads = PoolThreads();
    Samples setup;
    ItemLatencies epochs;
    Samples rates;  // requests per CPU second, one per item
    long finished = 0;
    std::vector<std::vector<double>> first(kTraces);
    const double start = Now();
    for (int item = 0; item % kTraces != 0 || item == 0 ||
                       Now() - start < options.seconds;
         ++item) {
        const int k = item % kTraces;
        double t0 = ThreadCpu();
        auto fleet = SetUp(TraceSeed(options.seed, k), threads, false, false,
                           nullptr, nullptr);
        setup.Add(ThreadCpu() - t0);
        const auto requests = static_cast<double>(fleet->trace.size());
        finished += static_cast<long>(requests);
        double seconds = 0.0;
        ClusterMetricsReport report =
            RunFleet(result, *fleet, &seconds, &epochs.Current());
        epochs.EndItem();
        rates.Add(requests / seconds);
        std::vector<double> digest = FleetDigest(report);
        if (first[k].empty()) {
            first[k] = digest;
        } else {
            result.Check(digest == first[k],
                         "repeated fleet run is not bit-identical");
        }
    }
    while (setup.Count() < kMinSetups) {
        double t0 = ThreadCpu();
        auto fleet = SetUp(TraceSeed(options.seed, 0), threads, false, false,
                           nullptr, nullptr);
        setup.Add(ThreadCpu() - t0);
    }
    PutItemRate(result, rates, finished);
    epochs.Put(result);
    result.Put("setup_s", setup.Median(), "s", setup.Count());
    result.Put("peak_rss_mb", PeakRssMb(), "MB");
    result.Check(ReferenceRun(options, result) == first[0],
                 "threaded fleet report differs from the 1-thread run");
}

void
MeasureTraced(const Options& options, RunResult& result)
{
    const int threads = PoolThreads();
    // Untraced runs for half the window, at least two; the first run of
    // a process is left out of the untraced CPU time (heap growth).
    Samples untraced_seconds;
    std::vector<double> reference;
    const double start = Now();
    for (int n = 0; n < 2 || Now() - start < options.seconds / 2; ++n) {
        auto fleet = SetUp(TraceSeed(options.seed, 0), threads, false, false,
                           nullptr, nullptr);
        double seconds = 0.0;
        reference = FleetDigest(RunFleet(result, *fleet, &seconds, nullptr));
        if (n > 0) untraced_seconds.Add(seconds);
    }

    SpanRecorder route_rec(0);
    std::vector<SpanRecorder> recorders;
    for (int r = 0; r < kReplicas; ++r) {
        recorders.emplace_back(static_cast<int64_t>(r + 1) << 40);
    }
    auto fleet = SetUp(TraceSeed(options.seed, 0), threads, true, false,
                       &recorders, &route_rec);
    fleet->engine->EnableProfiling(true);
    size_t submitted = fleet->trace.size();
    const double cpu_start = ProcessCpu();
    int64_t root = route_rec.Open("cluster.run", Now(), -1);
    fleet->router->parent = root;
    for (TimedScheduler* s : fleet->schedulers) s->parent = root;
    ClusterMetricsReport report = fleet->engine->Run(std::move(fleet->trace));
    route_rec.Close(root, Now());
    const double traced = ProcessCpu() - cpu_start;
    CheckFleet(result, *fleet, submitted);
    result.Check(FleetDigest(report) == reference,
                 "traced fleet report differs from the untraced run");
    const double untraced = untraced_seconds.Median();
    result.Put("trace.overhead_share", (traced - untraced) / untraced,
               "share", static_cast<long>(untraced_seconds.Count()));

    const auto& profile = fleet->engine->Profile();
    double busy = 0.0, wait = 0.0;
    long steals = 0;
    for (const auto& t : profile.threads) {
        busy += t.busy + t.steal_busy;
        wait += t.barrier_wait;
        steals += t.steals;
    }
    Samples next_us;
    double sched_total = 0.0, tokens = 0.0, decodes = 0.0;
    long batches = 0, admissions = 0, preemptions = 0, restores = 0;
    for (const TimedScheduler* s : fleet->schedulers) {
        sched_total += s->total_seconds;
        tokens += s->batch_tokens;
        decodes += s->batch_decodes;
        batches += s->batches;
        admissions += s->admissions;
        preemptions += s->preemptions;
        restores += s->restores;
    }
    std::vector<Span> spans = route_rec.Spans();
    for (const SpanRecorder& rec : recorders) {
        for (const Span& s : rec.Spans()) {
            spans.push_back(s);
            next_us.Add((s.end - s.start) * 1e6);
        }
    }
    const Samples& route_s = fleet->router->route_seconds;
    result.Put("cluster.route_us.p50", route_s.Median() * 1e6, "us",
               route_s.Count());
    result.Put("cluster.route_us.p99", route_s.Pct(99.0) * 1e6, "us",
               route_s.Count());
    long follow_ups = 0;
    double affinity = AffinityShare(*fleet->engine, &follow_ups);
    result.Put("cluster.affinity_share", affinity, "share", follow_ups);
    result.Put("cluster.advance_s", profile.advance.seconds, "s",
               profile.advance.count);
    result.Put("cluster.route_s", profile.route.seconds, "s",
               profile.route.count);
    result.Put("cluster.barrier_wait_share",
               busy + wait > 0 ? wait / (busy + wait) : 0.0, "share",
               static_cast<long>(profile.threads.size()));
    result.Put("cluster.steals", double(steals), "count");
    result.Put("cluster.pool_rounds", double(profile.pool_rounds), "count");
    result.Put("cluster.token_imbalance_cv", report.token_imbalance_cv,
               "ratio", kReplicas);

    // Split of accounted thread time: pool threads' busy and
    // barrier-wait time plus the caller's route phase.
    double accounted = busy + wait + profile.route.seconds;
    result.Put("trace.self_share.serve_scheduler", sched_total / accounted,
               "share");
    result.Put("trace.self_share.serve_engine",
               std::max(0.0, busy - sched_total) / accounted, "share");
    result.Put("trace.self_share.cluster_route",
               profile.route.seconds / accounted, "share");
    result.Put("trace.self_share.cluster_barrier_wait", wait / accounted,
               "share");

    result.Put("serve.scheduler_next_us.p50", next_us.Median(), "us",
               next_us.Count());
    result.Put("serve.scheduler_next_us.p99", next_us.Pct(99.0), "us",
               next_us.Count());
    result.Put("serve.scheduler_share", busy > 0 ? sched_total / busy : 0.0,
               "share");
    double n = std::max<long>(1, batches);
    result.Put("serve.batch_tokens_mean", tokens / n, "count", batches);
    result.Put("serve.batch_decodes_mean", decodes / n, "count", batches);
    result.Put("serve.admissions", double(admissions), "count");
    result.Put("serve.preemptions", double(preemptions), "count");
    result.Put("serve.restores", double(restores), "count");
    double kv = 0.0;
    for (const auto& u : report.utilization) kv += u.kv_mean / kReplicas;
    result.Put("serve.kv_util_mean", kv, "share", kReplicas);
    PutSimulatedServe(result, report.fleet, report.attn_cache_hits,
                      report.attn_cache_misses);
    result.spans = std::move(spans);
}

}  // namespace

RunResult
RunFleetSessions(const Options& options)
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
