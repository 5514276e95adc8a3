/**
 * @file
 * Serial-oracle determinism net for the work-stealing advance phase
 * (docs/DESIGN.md S8.4): heterogeneous golden scenarios, run under
 * every router at thread counts {1, 2, 4, hardware_concurrency}, must
 * produce reports and per-request completion records that compare
 * *exactly equal* — bit-identical doubles — to the 1-thread engine.
 * LPT seeding and stealing only change which thread advances which
 * replica, never any simulated quantity.
 */
#include "cluster/cluster_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../golden_scenarios.h"
#include "cluster/router.h"
#include "report_compare.h"
#include "serve/scheduler.h"

namespace pod::cluster {
namespace {

using pod::cluster::test::ExpectReportsEqual;
using pod::cluster::test::ExpectStatesEqual;

SchedulerFactory
Sarathi(int token_budget)
{
    return [token_budget](int) {
        return std::make_unique<serve::SarathiScheduler>(token_budget);
    };
}

/** Coarse memo-cache buckets: both sides of every comparison share
 * the bucketing, so resolution is irrelevant and warm caches keep the
 * sweep fast enough for the sanitizer jobs. */
void
CoarsenBuckets(serve::ServingConfig& config)
{
    config.kv_bucket = 4096;
    config.context_bucket = 4096;
    config.decode_bs_bucket = 32;
    config.chunk_bucket = 256;
}

struct Scenario
{
    std::string name;
    ClusterConfig config;
    int token_budget = 1024;
    std::vector<serve::Request> trace;
};

/** The PR 6 net's heterogeneous A100+H100+A6000 fleet: uneven
 * per-replica windows are exactly what stealing reschedules. */
Scenario
HeterogeneousFleet()
{
    serve::ServingConfig base;
    base.backend = core::Backend::kPod;
    CoarsenBuckets(base);
    Scenario s;
    s.name = "heterogeneous";
    s.config.replicas.assign(3, base);
    s.config.replicas[1].gpu = gpusim::GpuSpec::H100Sxm80GB();
    s.config.replicas[2].gpu = gpusim::GpuSpec::RtxA6000();
    s.trace = golden::ClusterTrace();
    return s;
}

/**
 * An offline burst on an 8-replica mixed H100/A6000 fleet: every
 * request queued at t = 0, so the whole drain is one advance window
 * with the most uneven per-replica work the engine ever sees,
 * mirroring bench_cluster_scaling's heterogeneous axis in miniature.
 */
Scenario
OfflineBurstMixedFleet()
{
    serve::ServingConfig base;
    base.backend = core::Backend::kFaSerial;
    CoarsenBuckets(base);
    Scenario s;
    s.name = "offline-burst-mixed";
    s.config.replicas.assign(8, base);
    for (size_t r = 0; r < s.config.replicas.size(); ++r) {
        s.config.replicas[r].gpu = r % 2 == 0
                                       ? gpusim::GpuSpec::H100Sxm80GB()
                                       : gpusim::GpuSpec::RtxA6000();
    }
    for (int i = 0; i < 64; ++i) {
        serve::Request r;
        r.id = i;
        r.arrival_time = 0.0;
        r.prefill_tokens = 256 + 613 * (i % 8) + (i % 9 == 0 ? 4000 : 0);
        r.decode_tokens = 8 + 23 * (i % 7);
        s.trace.push_back(r);
    }
    return s;
}

/** Watermark overload: preemption/restore lifecycle transitions must
 * come out identical whichever thread advances the replica. */
Scenario
WatermarkOverloadFleet()
{
    serve::ServingConfig base;
    base.backend = core::Backend::kFaSerial;
    base.tensor_parallel = 2;
    base.memory_fraction = 0.0958;
    base.kv_policy = serve::KvPolicy::kWatermark;
    base.kv_preempt_mode = serve::PreemptMode::kSwap;
    CoarsenBuckets(base);
    Scenario s;
    s.name = "overload-swap";
    s.config = ClusterConfig::Homogeneous(base, 2);
    s.token_budget = 512;
    s.trace = golden::OverloadTrace(16);
    return s;
}

void
RunScenarioSweep(const Scenario& scenario)
{
    const int hw = ThreadPool::ResolveThreads(0);
    for (const std::string& router : RouterNames()) {
        SCOPED_TRACE("router " + router);
        ClusterEngine oracle(scenario.config,
                             Sarathi(scenario.token_budget),
                             MakeRouter(router), /*num_threads=*/1);
        ClusterMetricsReport expected = oracle.Run(scenario.trace);

        for (int threads : {1, 2, 4, hw}) {
            SCOPED_TRACE(::testing::Message() << "threads " << threads);
            ClusterEngine parallel(scenario.config,
                                   Sarathi(scenario.token_budget),
                                   MakeRouter(router), threads);
            ClusterMetricsReport got = parallel.Run(scenario.trace);
            ExpectReportsEqual(expected, got);
            ExpectStatesEqual(oracle, parallel);
        }
    }
}

TEST(StealRegressionTest,
     HeterogeneousFleetBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(HeterogeneousFleet());
}

TEST(StealRegressionTest,
     OfflineBurstMixedFleetBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(OfflineBurstMixedFleet());
}

TEST(StealRegressionTest,
     WatermarkOverloadBitIdenticalAcrossThreadCounts)
{
    RunScenarioSweep(WatermarkOverloadFleet());
}

TEST(StealRegressionTest, TracingIsBitIdenticalUnderStealing)
{
    // The sim-time trace must also be schedule-independent: a
    // replica's recorder is written by whichever thread advances it
    // in a given round, so across rounds one recorder is written from
    // several threads — ordered by the pool barrier. Compare merged
    // trace bytes against the 1-thread engine's.
    Scenario s = HeterogeneousFleet();
    ClusterEngine oracle(s.config, Sarathi(s.token_budget),
                         MakeRouter("round-robin"), 1);
    oracle.EnableTracing();
    (void)oracle.Run(s.trace);

    ClusterEngine parallel(s.config, Sarathi(s.token_budget),
                           MakeRouter("round-robin"), 4);
    parallel.EnableTracing();
    (void)parallel.Run(s.trace);

    std::ostringstream serial_trace;
    std::ostringstream parallel_trace;
    oracle.WriteChromeTrace(serial_trace);
    parallel.WriteChromeTrace(parallel_trace);
    EXPECT_EQ(serial_trace.str(), parallel_trace.str());
}

}  // namespace
}  // namespace pod::cluster
