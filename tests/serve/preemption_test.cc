/**
 * @file
 * Watermark admission and preemption semantics (docs/DESIGN.md S2):
 * allocator-level unit tests for the vLLM-style watermark gate,
 * incremental decode growth, swap bookkeeping and the argument checks
 * both policies share, plus engine-level tests that an overloaded
 * replica preempts, restores progress (recompute) or charges PCIe
 * transfer time (swap), drains to
 * Done(), and keeps every incremental lifecycle counter equal to a
 * brute-force rescan at every step (mirroring
 * tests/serve/serve_incremental_test.cc).
 */
#include "serve/kv_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "../golden_scenarios.h"
#include "serve/engine.h"
#include "serve/scheduler.h"

namespace pod::serve {
namespace {

RequestState
MakeState(int id, int prefill_tokens, int decode_tokens)
{
    RequestState state;
    state.request = Request{id, 0.0, prefill_tokens, decode_tokens, {}, -1, 0};
    return state;
}

// ---- allocator unit tests ----

TEST(WatermarkKvAllocatorTest, AdmissionBlockedAtWatermark)
{
    // 100 blocks, 10 reserved as the watermark.
    KvAllocator kv(KvPolicy::kWatermark, 100, 16, 0.10,
                   PreemptMode::kRecompute, false);
    RequestState a = MakeState(0, 1280, 100);  // prompt = 80 blocks
    EXPECT_TRUE(kv.TryAdmit(a));
    a.phase = Phase::kRunning;
    EXPECT_EQ(kv.Held(0), 80);

    // 20 blocks free: an 11-block prompt would dip below the
    // watermark, a 10-block prompt sits exactly on it.
    RequestState b = MakeState(1, 176, 100);
    EXPECT_FALSE(kv.TryAdmit(b));
    RequestState c = MakeState(2, 160, 100);
    EXPECT_TRUE(kv.TryAdmit(c));
    EXPECT_EQ(kv.FreeBlocks(), 10);
}

TEST(WatermarkKvAllocatorTest, AdmitsOnPromptWhereConservativeBlocks)
{
    // The same request against the same pool: conservative reserves
    // prompt + maximum output and rejects; watermark reserves the
    // prompt only and admits. This is the relaxation that opens the
    // preemption-heavy regime.
    RequestState state = MakeState(0, 320, 1600);  // 20 + 100 blocks

    KvAllocator conservative(KvPolicy::kConservative, 64, 16, 0.0,
                             PreemptMode::kRecompute, false);
    EXPECT_FALSE(conservative.TryAdmit(state));

    KvAllocator watermark(KvPolicy::kWatermark, 64, 16, 0.01,
                          PreemptMode::kRecompute, false);
    EXPECT_TRUE(watermark.TryAdmit(state));
    EXPECT_EQ(watermark.Held(0), 20);  // prompt blocks only
}

TEST(WatermarkKvAllocatorTest, AppendAllocatesAtBlockBoundaries)
{
    KvAllocator kv(KvPolicy::kWatermark, 10, 16, 0.0,
                   PreemptMode::kRecompute, false);
    RequestState state = MakeState(0, 16, 64);  // prompt = 1 block
    ASSERT_TRUE(kv.TryAdmit(state));
    state.phase = Phase::kRunning;
    EXPECT_EQ(kv.Held(0), 1);

    // First decode token lands at position 16 -> a new block.
    state.prefilled = 16;
    state.decoded = 1;
    ASSERT_TRUE(kv.CanAppend(state));
    kv.Append(state);
    EXPECT_EQ(kv.Held(0), 2);

    // Tokens 17..31 stay inside the second block: no allocation.
    for (state.decoded = 2; state.decoded <= 15; ++state.decoded) {
        ASSERT_TRUE(kv.CanAppend(state));
        kv.Append(state);
        EXPECT_EQ(kv.Held(0), 2);
    }
    // Token at position 32 crosses into a third block.
    state.decoded = 16;
    kv.Append(state);
    EXPECT_EQ(kv.Held(0), 3);
}

TEST(WatermarkKvAllocatorTest, CanAppendFalseOnlyWhenPoolExhausted)
{
    KvAllocator kv(KvPolicy::kWatermark, 3, 16, 0.0,
                   PreemptMode::kRecompute, false);
    RequestState a = MakeState(0, 16, 64);
    RequestState b = MakeState(1, 32, 64);
    ASSERT_TRUE(kv.TryAdmit(a));
    ASSERT_TRUE(kv.TryAdmit(b));
    a.phase = Phase::kRunning;
    b.phase = Phase::kRunning;
    EXPECT_EQ(kv.FreeBlocks(), 0);

    // `a` needs a new block for its first decode token: blocked.
    a.prefilled = 16;
    a.decoded = 1;
    EXPECT_FALSE(kv.CanAppend(a));

    // Evicting `b` frees the block `a` needs.
    EXPECT_EQ(kv.Evict(b, PreemptMode::kRecompute), 2);
    EXPECT_TRUE(kv.CanAppend(a));
}

TEST(WatermarkKvAllocatorTest, SwapEvictRestoresExactFootprint)
{
    KvAllocator kv(KvPolicy::kWatermark, 10, 16, 0.0,
                   PreemptMode::kSwap, false);
    RequestState state = MakeState(0, 48, 64);  // 3 blocks
    ASSERT_TRUE(kv.TryAdmit(state));
    state.phase = Phase::kRunning;
    state.prefilled = 48;
    state.decoded = 1;
    kv.Append(state);  // 4th block for the first output token
    ASSERT_EQ(kv.Held(0), 4);

    EXPECT_EQ(kv.Evict(state, PreemptMode::kSwap), 4);
    state.phase = Phase::kPreemptedSwapped;
    EXPECT_EQ(kv.UsedBlocks(), 0);
    EXPECT_EQ(kv.SwappedBlocks(0), 4);

    // Swap-in restores the identical footprint, not a recomputed one.
    EXPECT_TRUE(kv.TryAdmit(state));
    EXPECT_EQ(kv.Held(0), 4);
    EXPECT_EQ(kv.SwappedBlocks(0), 0);
}

TEST(WatermarkKvAllocatorTest, WatermarkHeadroomTracksFreePool)
{
    KvAllocator kv(KvPolicy::kWatermark, 100, 16, 0.10,
                   PreemptMode::kRecompute, false);
    EXPECT_DOUBLE_EQ(kv.WatermarkHeadroom(), 0.90);
    RequestState state = MakeState(0, 1280, 16);  // 80 blocks
    ASSERT_TRUE(kv.TryAdmit(state));
    EXPECT_NEAR(kv.WatermarkHeadroom(), 0.10, 1e-12);

    KvAllocator conservative(KvPolicy::kConservative, 100, 16, 0.0,
                             PreemptMode::kRecompute, false);
    EXPECT_DOUBLE_EQ(conservative.WatermarkHeadroom(), 1.0);
}

TEST(KvAllocatorTest, ConservativeDiscardsAValidWatermark)
{
    KvAllocator kv(KvPolicy::kConservative, 100, 16, 0.5,
                   PreemptMode::kSwap, false);
    EXPECT_EQ(kv.WatermarkFraction(), 0.0);
    EXPECT_EQ(kv.preempt_mode(), PreemptMode::kRecompute);
    RequestState state = MakeState(0, 1280, 320);  // 80 + 20 blocks
    EXPECT_TRUE(kv.TryAdmit(state));  // the whole pool, no reserve
    EXPECT_EQ(kv.FreeBlocks(), 0);
    kv.AuditLedger();
}

TEST(KvAllocatorDeathTest, WatermarkOutOfRangeUnderEitherPolicy)
{
    // The range is checked before the conservative policy discards
    // the value, so a bad config fails the same way under both.
    for (KvPolicy policy : {KvPolicy::kConservative, KvPolicy::kWatermark}) {
        for (double watermark :
             {-0.01, 1.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
            EXPECT_EXIT(KvAllocator(policy, 100, 16, watermark,
                                    PreemptMode::kRecompute, false),
                        ::testing::ExitedWithCode(1),
                        "kv_watermark must be in \\[0, 1\\)");
        }
    }
    // The engine builds its allocator from the config at construction.
    ServingConfig config;
    config.kv_watermark = 1.5;
    EXPECT_EXIT(ServingEngine(config, std::make_unique<SarathiScheduler>(512)),
                ::testing::ExitedWithCode(1),
                "kv_watermark must be in \\[0, 1\\)");
}

TEST(KvAllocatorDeathTest, ConservativeEvictIsFatal)
{
    KvAllocator kv(KvPolicy::kConservative, 100, 16, 0.0,
                   PreemptMode::kRecompute, false);
    RequestState state = MakeState(0, 160, 16);
    ASSERT_TRUE(kv.TryAdmit(state));
    EXPECT_DEATH(kv.Evict(state, PreemptMode::kRecompute),
                 "can never need an eviction");
}

TEST(KvAllocatorDeathTest, CacheWithTheCacheOffIsFatal)
{
    KvAllocator kv(KvPolicy::kWatermark, 100, 16, 0.01,
                   PreemptMode::kRecompute, false);
    EXPECT_EQ(kv.PrefixStats(), nullptr);
    EXPECT_EXIT(kv.Cache(), ::testing::ExitedWithCode(1),
                "the prefix cache is disabled");
}

// ---- engine-level preemption semantics ----

ServingConfig
OverloadConfig(PreemptMode mode)
{
    ServingConfig config;
    config.model = model::ModelConfig::Llama3_8B();
    config.tensor_parallel = 2;
    config.backend = core::Backend::kFaSerial;
    // Shrink the KV pool to a few thousand tokens so the overload
    // trace actually contends (same trick as failure_test.cc).
    config.memory_fraction = 0.0958;
    config.kv_policy = KvPolicy::kWatermark;
    config.kv_preempt_mode = mode;
    // Coarse buckets keep kernel simulations rare and the test fast.
    config.kv_bucket = 4096;
    config.context_bucket = 4096;
    config.decode_bs_bucket = 32;
    return config;
}

TEST(PreemptionEngineTest, RecomputeOverloadPreemptsAndDrains)
{
    ServingEngine engine(OverloadConfig(PreemptMode::kRecompute),
                         std::make_unique<SarathiScheduler>(512));
    MetricsReport report = engine.Run(golden::OverloadTrace());

    // The acceptance bar: at least one preemption occurred and the
    // engine still drained every request.
    EXPECT_GT(report.preemptions, 0l);
    EXPECT_EQ(report.preemptions, report.preemptions_recompute);
    EXPECT_EQ(report.preemptions_swap, 0l);
    EXPECT_EQ(report.swap_time_total, 0.0);
    EXPECT_GT(report.requests_preempted, 0);
    EXPECT_EQ(report.num_requests, 12);
    EXPECT_EQ(report.latency.Count(), 12u);
    EXPECT_TRUE(engine.Done());

    // Recompute restored prefill progress: a preempted request ended
    // with its prefill re-run over prompt + already-generated tokens.
    long preempt_count_sum = 0;
    bool saw_restored_prefill = false;
    for (const auto& state : engine.States()) {
        EXPECT_TRUE(state.Finished());
        EXPECT_EQ(state.decoded, state.request.decode_tokens);
        EXPECT_EQ(state.prefilled, state.PrefillTarget());
        preempt_count_sum += state.preempt_count;
        if (state.preempt_count > 0 && state.recompute_extra > 0) {
            EXPECT_EQ(state.PrefillTarget(),
                      state.request.prefill_tokens +
                          state.recompute_extra);
            saw_restored_prefill = true;
        }
    }
    EXPECT_TRUE(saw_restored_prefill);
    // Preempted-request counters match the brute-force rescan.
    EXPECT_EQ(report.preemptions, preempt_count_sum);

    // Counters surface through the snapshot.
    ReplicaSnapshot snap = engine.Snapshot();
    EXPECT_EQ(snap.preemptions_recompute, report.preemptions_recompute);
    EXPECT_EQ(snap.preemptions_swap, 0l);
    EXPECT_EQ(snap.preempted, 0);  // all drained
    EXPECT_EQ(snap.swap_time_total, 0.0);
}

TEST(PreemptionEngineTest, SwapChargesTransferTime)
{
    ServingEngine engine(OverloadConfig(PreemptMode::kSwap),
                         std::make_unique<SarathiScheduler>(512));

    // Drive Step() directly so per-iteration swap charges can be
    // cross-checked against the lifetime total.
    auto trace = golden::OverloadTrace();
    std::sort(trace.begin(), trace.end(), ArrivalOrder);
    engine.Reset();
    for (const auto& request : trace) engine.Submit(request);
    double summed_swap_time = 0.0;
    while (!engine.Done()) {
        StepResult result = engine.Step();
        summed_swap_time += result.swap_time;
        // Swap transfers stretch the iteration that performs them.
        EXPECT_LE(result.swap_time, result.duration);
    }
    MetricsReport report = engine.Report();

    EXPECT_GT(report.preemptions_swap, 0l);
    EXPECT_EQ(report.preemptions_recompute, 0l);
    EXPECT_GT(report.swap_time_total, 0.0);
    EXPECT_DOUBLE_EQ(report.swap_time_total, summed_swap_time);
    EXPECT_DOUBLE_EQ(engine.SwapTimeTotal(), summed_swap_time);

    // Swapped requests resume where they left off: no prefill target
    // ever grows under pure swap preemption.
    for (const auto& state : engine.States()) {
        EXPECT_EQ(state.recompute_extra, 0);
        EXPECT_EQ(state.decoded, state.request.decode_tokens);
    }
}

TEST(PreemptionEngineTest, SwapSlowerMakespanThanFreeEviction)
{
    // The transfer charge must be visible end-to-end: the same trace
    // under the same allocator with swap costs a strictly longer
    // makespan than with recompute-free... not comparable in general,
    // but swap time must at least push makespan above the pure
    // iteration sum, which recompute does not inflate.
    ServingEngine swap_engine(OverloadConfig(PreemptMode::kSwap),
                              std::make_unique<SarathiScheduler>(512));
    MetricsReport swap_report =
        swap_engine.Run(golden::OverloadTrace());
    EXPECT_GT(swap_report.swap_time_total, 0.0);
    EXPECT_GT(swap_report.makespan, swap_report.swap_time_total);
}

TEST(PreemptionEngineTest, VllmSchedulerAlsoDrainsUnderWatermark)
{
    ServingEngine engine(OverloadConfig(PreemptMode::kRecompute),
                         std::make_unique<VllmScheduler>());
    MetricsReport report = engine.Run(golden::OverloadTrace());
    EXPECT_EQ(report.num_requests, 12);
    EXPECT_EQ(report.latency.Count(), 12u);
    EXPECT_TRUE(engine.Done());
}

// ---- brute-force invariant under preemption ----

/**
 * The serve_incremental_test.cc oracle, extended with the preempted
 * phase: every lifecycle counter the O(1) snapshot reports must
 * equal a full rescan of the request states.
 */
void
BruteForceExpectations(const ServingEngine& engine,
                       const ReplicaSnapshot& snap)
{
    const auto& states = engine.States();
    const KvAllocator& alloc = engine.Allocator();
    int waiting = 0;
    int running = 0;
    int preempted = 0;
    long prefill_pending = 0;
    long decode_pending = 0;
    long preempt_events = 0;
    long pending_blocks = 0;  // unadmitted + preempted latent demand
    double next_event = std::numeric_limits<double>::infinity();
    bool runnable = false;
    for (const auto& state : states) {
        preempt_events += state.preempt_count;
        if (state.Finished()) continue;
        if (state.Admitted() || state.Preempted() ||
            state.request.arrival_time <= engine.Now()) {
            runnable = true;
        } else {
            next_event = std::min(next_event, state.request.arrival_time);
        }
        if (state.Admitted()) {
            ++running;
            decode_pending += state.request.decode_tokens - state.decoded;
        } else if (state.phase == Phase::kPreemptedRecompute) {
            ++preempted;
            pending_blocks += alloc.BlocksFor(state.PrefillTarget());
        } else if (state.phase == Phase::kPreemptedSwapped) {
            ++preempted;
            pending_blocks += alloc.SwappedBlocks(state.request.id);
        } else {
            if (state.request.arrival_time <= engine.Now()) ++waiting;
            pending_blocks += alloc.BlocksFor(
                state.request.prefill_tokens + state.request.decode_tokens);
        }
        prefill_pending += state.PrefillTarget() - state.prefilled;
    }
    // kv_pressure counts reserved blocks plus every queued AND
    // preempted request's latent re-reservation demand.
    EXPECT_DOUBLE_EQ(
        snap.kv_pressure,
        alloc.Utilization() + static_cast<double>(pending_blocks) /
                                  static_cast<double>(alloc.TotalBlocks()));
    EXPECT_EQ(snap.waiting, waiting);
    EXPECT_EQ(snap.running, running);
    EXPECT_EQ(snap.preempted, preempted);
    EXPECT_EQ(snap.prefill_tokens_pending, prefill_pending);
    EXPECT_EQ(snap.decode_tokens_pending, decode_pending);
    EXPECT_EQ(snap.preemptions_recompute + snap.preemptions_swap,
              preempt_events);
    EXPECT_EQ(snap.outstanding,
              static_cast<int>(states.size()) - snap.finished);
    EXPECT_EQ(engine.NextEventTime(),
              runnable ? engine.Now() : next_event);
}

TEST(PreemptionEngineTest, CountersMatchBruteForceEveryStep)
{
    for (PreemptMode mode :
         {PreemptMode::kRecompute, PreemptMode::kSwap}) {
        ServingEngine engine(OverloadConfig(mode),
                             std::make_unique<SarathiScheduler>(512));
        engine.Reset();
        auto trace = golden::OverloadTrace();
        size_t submitted = 0;
        while (submitted < trace.size() || !engine.Done()) {
            // Interleave submissions with steps, as the cluster does.
            while (submitted < trace.size() &&
                   trace[submitted].arrival_time <= engine.Now()) {
                engine.Submit(trace[submitted++]);
            }
            BruteForceExpectations(engine, engine.Snapshot());
            if (!engine.Done()) {
                engine.Step();
            } else if (submitted < trace.size()) {
                engine.Submit(trace[submitted++]);
            }
        }
        BruteForceExpectations(engine, engine.Snapshot());
        ReplicaSnapshot final_snap = engine.Snapshot();
        EXPECT_GT(final_snap.preemptions_recompute +
                      final_snap.preemptions_swap,
                  0l);
    }
}

TEST(PreemptionEngineTest, ConservativeNeverPreemptsOnOverload)
{
    // The same overload trace under the default policy: requests
    // queue instead of thrashing, and every lifecycle counter stays
    // zero — the redesign is opt-in.
    ServingConfig config = OverloadConfig(PreemptMode::kRecompute);
    config.kv_policy = KvPolicy::kConservative;
    ServingEngine engine(config,
                         std::make_unique<SarathiScheduler>(512));
    MetricsReport report = engine.Run(golden::OverloadTrace());
    EXPECT_EQ(report.preemptions, 0l);
    EXPECT_EQ(report.requests_preempted, 0);
    EXPECT_EQ(report.swap_time_total, 0.0);
    EXPECT_EQ(report.num_requests, 12);
}

}  // namespace
}  // namespace pod::serve
