/**
 * @file
 * kernel_sweep: the Fig. 11 hybrid-batch grid through
 * core::RunAttention with FA_Serial and POD on the simulated A100, in
 * a seeded order. gpusim, kernels and core do all the host work here;
 * serve and cluster do none.
 *
 * Untraced, every FA_Serial and POD call is timed from outside and the
 * first full pass yields the paper_err.* metrics. Traced, the same
 * calls run again under spans, and each batch is also replayed through
 * the public plan and simulator entry points (kernels geometry,
 * core::BuildPodKernel, gpusim::FluidEngine) so that plan time and
 * simulation time split cleanly; those replays are checked to
 * reproduce RunAttention's simulated time exactly.
 */
#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/pod_kernel.h"
#include "gpusim/engine.h"
#include "kernels/attn_kernels.h"
#include "kernels/flash_geometry.h"
#include "kernels/tile.h"
#include "model/iteration_cost.h"
#include "workloads.h"

namespace perfbench {

namespace {

using pod::core::AttnRunResult;
using pod::core::Backend;
using pod::core::RunAttention;

constexpr size_t kBatchesPerSetup = 20;
/** Calls per latency item: enough for a p99 with 10 samples beyond. */
constexpr size_t kCallsPerItem = 1000;

struct Sweep
{
    std::vector<GridBatch> grid;
    std::vector<size_t> order;  ///< Seeded visiting order.
};

Sweep
MakeSweep(uint64_t seed)
{
    Sweep sweep;
    sweep.grid = Fig11Grid();
    sweep.order.resize(sweep.grid.size());
    for (size_t i = 0; i < sweep.order.size(); ++i) sweep.order[i] = i;
    pod::Rng rng(seed);
    for (size_t i = sweep.order.size(); i > 1; --i) {
        auto j = static_cast<size_t>(rng.UniformInt(0, i - 1));
        std::swap(sweep.order[i - 1], sweep.order[j]);
    }
    return sweep;
}

bool
InUnit(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

/** Per-call output check: finite positive time, utilisations in
 *  [0, 1]; for POD also "never below serial" (within 0.1%). */
void
CheckCall(RunResult& result, const AttnRunResult& r, size_t index,
          const AttnRunResult* serial)
{
    bool ok = std::isfinite(r.total_time) && r.total_time > 0.0 &&
              InUnit(r.tensor_util) && InUnit(r.useful_tensor_util) &&
              InUnit(r.mem_util);
    if (serial != nullptr) {
        ok = ok && r.total_time <= serial->total_time * 1.001;
    }
    result.Check(ok, std::string(pod::core::BackendName(r.backend)) +
                         " on grid batch " + std::to_string(index));
}

/** Simulated outputs one batch produced, for bit-exact comparison. */
struct Outcome
{
    double serial_total = 0.0;
    double serial_prefill = 0.0;
    double pod_total = 0.0;

    bool operator==(const Outcome& o) const
    {
        return serial_total == o.serial_total &&
               serial_prefill == o.serial_prefill && pod_total == o.pod_total;
    }
};

/** Untimed-outside, timed-inside run of one batch: FA_Serial, filter,
 *  POD. Adds both calls' thread CPU times to `op`. */
Outcome
RunBatch(RunResult& result, const Sweep& sweep, size_t index,
         const pod::gpusim::GpuSpec& gpu, Samples& op, Fig11Accumulator* acc)
{
    const auto& batch = sweep.grid[index].batch;
    Outcome out;
    double t0 = ThreadCpu();
    AttnRunResult serial = RunAttention(Backend::kFaSerial, batch, gpu);
    op.Add(ThreadCpu() - t0);
    CheckCall(result, serial, index, nullptr);
    out.serial_total = serial.total_time;
    out.serial_prefill = serial.prefill_time;
    if (!KeptByPaperFilter(serial)) {
        if (acc != nullptr) acc->Add(index, serial, nullptr);
        return out;
    }
    double t2 = ThreadCpu();
    AttnRunResult pod = RunAttention(Backend::kPod, batch, gpu);
    op.Add(ThreadCpu() - t2);
    CheckCall(result, pod, index, &serial);
    out.pod_total = pod.total_time;
    if (acc != nullptr) acc->Add(index, serial, &pod);
    return out;
}

/** Work counters of the simulations the probes ran. */
struct SimTally
{
    long calls = 0;
    long events = 0;
    long oracle_events = 0;
    long ctas = 0;
    double mem_bytes = 0.0;

    void Add(const pod::gpusim::SimResult& sim)
    {
        ++calls;
        events += sim.analytic_fastpath_events + sim.oracle_fallback_events;
        oracle_events += sim.oracle_fallback_events;
        ctas += sim.total_ctas;
        for (const auto& op : sim.per_op) mem_bytes += op.mem_bytes;
    }
};

/**
 * FA_Serial replayed through the public geometry and simulator entry
 * points, mirroring RunAttention's full-hybrid FA_Serial path: returns
 * the simulated total time. Spans: kernels.fa_serial_geometry,
 * gpusim.run.
 */
double
ProbeFaSerial(const pod::kernels::HybridBatch& batch,
              const pod::gpusim::GpuSpec& gpu, SpanRecorder& rec,
              int64_t parent, SimTally& tally)
{
    namespace k = pod::kernels;
    double t0 = Now();
    k::UnitGeometry prefill;
    k::TileConfig tile = k::PrefillTileLarge();
    for (const auto& p : batch.prefills) {
        int base = batch.shape.num_q_heads *
                   pod::CeilDiv(p.chunk_len, tile.tile_q);
        k::GeomOptions opts;
        opts.tile = tile;
        opts.num_splits = k::VanillaPrefillSplits(base, p.kv_len, gpu.num_sms);
        k::UnitGeometry geom = k::BuildPrefillUnits(batch.shape, p, opts);
        prefill.resources = geom.resources;
        prefill.useful_tensor_flops += geom.useful_tensor_flops;
        prefill.issued_tensor_flops += geom.issued_tensor_flops;
        prefill.mem_bytes += geom.mem_bytes;
        for (auto& unit : geom.units) prefill.units.push_back(std::move(unit));
    }
    k::GeomOptions dopts;
    dopts.tile = k::DecodeTileFa();
    int base = batch.decode.BatchSize() * batch.shape.num_kv_heads;
    int min_ctx = *std::min_element(batch.decode.context_lens.begin(),
                                    batch.decode.context_lens.end());
    dopts.num_splits = k::FlashDecodingSplits(base, min_ctx, gpu.num_sms);
    k::UnitGeometry decode = k::BuildDecodeUnits(batch.shape, batch.decode,
                                                 dopts);
    std::vector<pod::gpusim::KernelLaunch> launches = {
        {k::MakeSimpleKernel("fa_prefill", prefill), 0},
        {k::MakeSimpleKernel("fa_decode", decode), 0}};
    double t1 = Now();
    rec.Add("kernels.fa_serial_geometry", t0, t1, parent);
    pod::gpusim::FluidEngine engine(gpu);
    pod::gpusim::SimResult sim = engine.Run(launches);
    rec.Add("gpusim.run", t1, Now(), parent);
    tally.Add(sim);
    return sim.total_time;
}

/**
 * POD replayed as RunAttention's auto mode does it: plan and simulate
 * the 2- and 4-CTA/SM configurations, keep the faster. Spans:
 * core.build_pod_kernel, gpusim.run_kernel.
 */
double
ProbePod(const pod::kernels::HybridBatch& batch,
         const pod::gpusim::GpuSpec& gpu, SpanRecorder& rec, int64_t parent,
         SimTally& tally, Samples& build_us, Samples& sim_us)
{
    double best = 0.0;
    for (auto cpm : {pod::core::CtasPerSm::kTwo, pod::core::CtasPerSm::kFour}) {
        pod::core::PodOptions opts;
        opts.ctas_per_sm = cpm;
        double t0 = Now();
        pod::core::PodPlan plan;
        pod::gpusim::KernelDesc kernel =
            pod::core::BuildPodKernel(batch, gpu, opts, &plan);
        double t1 = Now();
        pod::gpusim::FluidEngine engine(gpu);
        pod::gpusim::SimResult sim = engine.RunKernel(kernel);
        double t2 = Now();
        rec.Add("core.build_pod_kernel", t0, t1, parent);
        rec.Add("gpusim.run_kernel", t1, t2, parent);
        build_us.Add((t1 - t0) * 1e6);
        sim_us.Add((t2 - t1) * 1e6);
        tally.Add(sim);
        if (cpm == pod::core::CtasPerSm::kTwo || sim.total_time < best) {
            best = sim.total_time;
        }
    }
    return best;
}

double
SpanSeconds(const std::vector<Span>& spans, const std::string& prefix)
{
    double total = 0.0;
    for (const Span& s : spans) {
        if (std::string(s.name).rfind(prefix, 0) == 0) total += s.end - s.start;
    }
    return total;
}

void
PutLatency(RunResult& result, const std::string& name, const Samples& us)
{
    result.Put(name + ".p50", us.Median(), "us", us.Count());
    result.Put(name + ".p99", us.Pct(99.0), "us", us.Count());
}

/** Untraced run: host cost and paper fidelity. */
void
MeasureUntraced(const Options& options, const Sweep& sweep,
                RunResult& result)
{
    const auto gpu = pod::gpusim::GpuSpec::A100Sxm80GB();
    Fig11Accumulator acc(sweep.grid.size());
    std::vector<Outcome> first(sweep.grid.size());
    ItemLatencies op;
    long calls = 0;
    size_t pos = 0;
    bool full_pass = false;
    // Set-up takes well under a millisecond, so it is repeated between
    // batches through the whole window (and left out of the timed
    // work): its median then sees the same host conditions as the calls.
    Samples setup;
    double setup_total = 0.0;
    const double start = Now();
    const double cpu_start = ThreadCpu();
    while (!full_pass || Now() - start < options.seconds) {
        if (pos == sweep.order.size()) {
            pos = 0;
            full_pass = true;
            continue;
        }
        if (pos % kBatchesPerSetup == 0) {
            double t0 = ThreadCpu();
            Sweep rebuilt = MakeSweep(options.seed);
            double t1 = ThreadCpu();
            setup.Add(t1 - t0);
            setup_total += t1 - t0;
            result.Check(rebuilt.order == sweep.order,
                         "seeded grid order is not reproducible");
        }
        size_t index = sweep.order[pos++];
        size_t before = op.Current().Count();
        Outcome out = RunBatch(result, sweep, index, gpu, op.Current(),
                               full_pass ? nullptr : &acc);
        calls += static_cast<long>(op.Current().Count() - before);
        if (op.Current().Count() >= kCallsPerItem) op.EndItem();
        if (!full_pass) {
            first[index] = out;
        } else {
            result.Check(out == first[index],
                         "repeat of grid batch " + std::to_string(index) +
                             " is not bit-identical");
        }
    }
    const double elapsed = ThreadCpu() - cpu_start - setup_total;
    op.EndItem(kCallsPerItem);
    result.Put("items_per_s", calls / elapsed, "1/s", calls);
    op.Put(result);
    result.Put("setup_s", setup.Median(), "s", setup.Count());
    PutPaperErrors(result, acc.Reduce());
}

/** Traced run: per-layer metrics from spans and probes. */
void
MeasureTraced(const Options& options, const Sweep& sweep, RunResult& result)
{
    const auto gpu = pod::gpusim::GpuSpec::A100Sxm80GB();
    // Untraced reference: as many batches as fit in a quarter of the
    // window (at most one pass), run twice; the warm second run is the
    // untraced wall time the traced replay is compared against.
    std::vector<Outcome> plain;
    Samples unused;
    double start = Now();
    while (plain.size() < sweep.order.size() &&
           Now() - start < options.seconds / 4) {
        plain.push_back(RunBatch(result, sweep, sweep.order[plain.size()],
                                 gpu, unused, nullptr));
    }
    start = Now();
    for (size_t k = 0; k < plain.size(); ++k) {
        RunBatch(result, sweep, sweep.order[k], gpu, unused, nullptr);
    }
    const double untraced_wall = Now() - start;

    SpanRecorder rec;
    Samples serial_us, pod_us, build_us, sim_us, model_self_us;
    SimTally tally;
    long mismatches = 0;
    // Layer attribution of RunAttention time, split per batch in the
    // ratio its probe measured.
    double attr_gpusim = 0.0, attr_core = 0.0, attr_model = 0.0;
    start = Now();
    for (size_t k = 0; k < plain.size(); ++k) {
        size_t index = sweep.order[k];
        const auto& batch = sweep.grid[index].batch;
        Outcome out;
        int64_t root = rec.Open("bench.batch", Now(), -1,
                                static_cast<int64_t>(index));

        double t0 = Now();
        AttnRunResult serial = RunAttention(Backend::kFaSerial, batch, gpu);
        double t1 = Now();
        rec.Add("core.run_attention.fa_serial", t0, t1, root);
        serial_us.Add((t1 - t0) * 1e6);
        CheckCall(result, serial, index, nullptr);
        out.serial_total = serial.total_time;
        out.serial_prefill = serial.prefill_time;

        int64_t probe = rec.Open("probe.fa_serial", Now(), root);
        size_t before = rec.Spans().size();
        if (ProbeFaSerial(batch, gpu, rec, probe, tally) != serial.total_time) {
            ++mismatches;
        }
        rec.Close(probe, Now());
        const auto& s = rec.Spans();
        double geom = s[before].end - s[before].start;
        double sim = s[before + 1].end - s[before + 1].start;
        attr_gpusim += (t1 - t0) * sim / (geom + sim);
        attr_core += (t1 - t0) * geom / (geom + sim);

        if (KeptByPaperFilter(serial)) {
            double t2 = Now();
            AttnRunResult pod = RunAttention(Backend::kPod, batch, gpu);
            double t3 = Now();
            rec.Add("core.run_attention.pod", t2, t3, root);
            pod_us.Add((t3 - t2) * 1e6);
            CheckCall(result, pod, index, &serial);
            out.pod_total = pod.total_time;

            probe = rec.Open("probe.pod", Now(), root);
            size_t first_span = rec.Spans().size();
            if (ProbePod(batch, gpu, rec, probe, tally, build_us, sim_us) !=
                pod.total_time) {
                ++mismatches;
            }
            rec.Close(probe, Now());
            double build = 0.0, simulate = 0.0;
            for (size_t i = first_span; i < rec.Spans().size(); ++i) {
                const Span& sp = rec.Spans()[i];
                (sp.name[0] == 'g' ? simulate : build) += sp.end - sp.start;
            }
            attr_gpusim += (t3 - t2) * simulate / (build + simulate);
            attr_core += (t3 - t2) * build / (build + simulate);

            // Cost() minus the RunAttention it contains is the roofline
            // part, timed directly: the difference of two multi-ms
            // timings would be dominated by their noise.
            const auto& m = Fig11Models()[sweep.grid[index].model];
            int tokens = batch.decode.BatchSize();
            for (const auto& p : batch.prefills) tokens += p.chunk_len;
            double t4 = Now();
            pod::model::ComputeLinearCosts(m.config, gpu, m.tensor_parallel,
                                           tokens);
            double t5 = Now();
            rec.Add("model.linear_costs", t4, t5, root);
            double self = t5 - t4;
            model_self_us.Add(self * 1e6);
            attr_model += self;
        }
        rec.Close(root, Now());
        result.Check(out == plain[k], "traced replay of grid batch " +
                                          std::to_string(index) +
                                          " differs from the untraced run");
    }
    const double traced_wall = Now() - start;
    const auto& spans = rec.Spans();
    double extra = SpanSeconds(spans, "probe.") + SpanSeconds(spans, "model.");
    double comparable = traced_wall - extra;
    result.Put("trace.overhead_share",
               (comparable - untraced_wall) / untraced_wall, "share",
               static_cast<long>(plain.size()));
    result.Put("trace.probe_mismatches", static_cast<double>(mismatches),
               "count");

    // Self-time split of the traced time: RunAttention attributed by
    // probe ratios, plus the model's roofline time.
    double bench = std::max(0.0, comparable - attr_gpusim - attr_core);
    double denom = attr_gpusim + attr_core + attr_model + bench;
    result.Put("trace.self_share.gpusim", attr_gpusim / denom, "share");
    result.Put("trace.self_share.core", attr_core / denom, "share");
    result.Put("trace.self_share.model", attr_model / denom, "share");
    result.Put("trace.self_share.bench", bench / denom, "share");

    PutLatency(result, "gpusim.run_kernel_us", sim_us);
    double calls = std::max<long>(1, tally.calls);
    result.Put("gpusim.events_per_call", tally.events / calls, "count",
               tally.calls);
    result.Put("gpusim.fallback_share",
               tally.events > 0 ? double(tally.oracle_events) / tally.events
                                : 0.0,
               "share", tally.calls);
    result.Put("gpusim.ctas_per_call", tally.ctas / calls, "count",
               tally.calls);
    result.Put("gpusim.mem_bytes_per_call", tally.mem_bytes / calls, "B",
               tally.calls);
    PutLatency(result, "core.build_pod_kernel_us", build_us);
    PutLatency(result, "core.run_attention_us.pod", pod_us);
    PutLatency(result, "core.run_attention_us.fa_serial", serial_us);
    result.Put("model.iteration_cost_self_us", model_self_us.Median(), "us",
               model_self_us.Count());
    result.spans = spans;
}

}  // namespace

RunResult
RunKernelSweep(const Options& options)
{
    RunResult result;
    const Sweep sweep = MakeSweep(options.seed);
    if (options.trace) {
        MeasureTraced(options, sweep, result);
    } else {
        MeasureUntraced(options, sweep, result);
        result.Put("peak_rss_mb", PeakRssMb(), "MB");
    }
    return result;
}

}  // namespace perfbench
