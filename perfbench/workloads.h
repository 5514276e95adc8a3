/**
 * @file
 * The three perfbench workloads and the Fig. 11 fidelity measure they
 * share. Each workload hands the simulator generated inputs, drives it
 * through its public API, times every driving call from outside, and
 * checks the outputs.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <vector>

#include "core/attention.h"
#include "harness.h"
#include "kernels/attn_types.h"
#include "model/model_config.h"

namespace perfbench {

/** One batch of the paper's Fig. 11 grid. */
struct GridBatch
{
    int model = 0;  ///< Index into Fig11Models().
    pod::kernels::HybridBatch batch;
};

/** One of the three Fig. 11 models with its tensor-parallel degree
 *  and the per-GPU attention shape that implies. */
struct GridModel
{
    pod::model::ModelConfig config;
    int tensor_parallel;
    pod::kernels::AttnShape shape;
};
const std::vector<GridModel>& Fig11Models();

/** The full Fig. 11 grid (3 models x context x chunk x decode batch x
 *  decode context), in bench_fig11_speedup_dist's loop order. */
std::vector<GridBatch> Fig11Grid();

/** The paper's 20% filter: both phases take >= 20% of serial time. */
bool KeptByPaperFilter(const pod::core::AttnRunResult& serial);

/** Fig. 11 POD headline statistics over the kept batches. */
struct Fig11Stats
{
    int kept = 0;
    int filtered = 0;
    double mean_speedup_pct = 0.0;  ///< mean(serial / POD) - 1, in %.
    double peak_speedup_pct = 0.0;  ///< max(serial / POD) - 1, in %.
    double within10_pct = 0.0;      ///< % of batches > 90% of peak.
};

/**
 * Accumulates per-batch FA_Serial / POD results in any order and
 * reduces them in grid order, so the statistics equal
 * bench_fig11_speedup_dist's bit for bit.
 */
class Fig11Accumulator
{
  public:
    explicit Fig11Accumulator(size_t grid_size);
    void Add(size_t index, const pod::core::AttnRunResult& serial,
             const pod::core::AttnRunResult* pod);
    Fig11Stats Reduce() const;

  private:
    struct Entry
    {
        bool seen = false;
        bool kept = false;
        double speedup = 0.0;
        double vs_peak = 0.0;
    };
    std::vector<Entry> entries_;
};

/** Run the whole grid once through RunAttention, untimed. */
Fig11Stats MeasureFig11();

/** Add the paper_err.* metrics for `stats`. */
void PutPaperErrors(RunResult& result, const Fig11Stats& stats);

RunResult RunKernelSweep(const Options& options);
RunResult RunServeOffline(const Options& options);
RunResult RunFleetSessions(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
