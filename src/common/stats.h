/**
 * @file
 * Summary statistics and percentile accumulators used by the
 * benchmarks and the serving metrics collector.
 */
#ifndef POD_COMMON_STATS_H
#define POD_COMMON_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace pod {

/**
 * Accumulates scalar samples and reports summary statistics.
 *
 * Samples are retained so exact percentiles can be computed; suitable
 * for the sample counts this library handles (millions at most).
 */
class SampleStats
{
  public:
    /** Add one sample. */
    void Add(double value);

    /** Add many samples. */
    void AddAll(const std::vector<double>& values);

    /** Pre-size storage for n samples in total (no samples added). */
    void Reserve(size_t n) { samples_.reserve(n); }

    /** Number of samples recorded. */
    size_t Count() const { return samples_.size(); }

    /** Arithmetic mean (0 if empty). */
    double Mean() const;

    /** Population standard deviation (0 if fewer than 2 samples). */
    double Stddev() const;

    /** Minimum sample (0 if empty). */
    double Min() const;

    /** Maximum sample (0 if empty). */
    double Max() const;

    /** Sum of all samples. */
    double Sum() const;

    /**
     * Exact percentile via linear interpolation between order
     * statistics. @param p in [0, 100].
     */
    double Percentile(double p) const;

    /** Median, shorthand for Percentile(50). */
    double Median() const { return Percentile(50.0); }

    /** Fraction of samples strictly greater than the threshold. */
    double FractionAbove(double threshold) const;

    /** Access to raw samples (sorted on demand internally). */
    const std::vector<double>& Samples() const { return samples_; }

    /** Reset to empty. */
    void Clear();

    /** One-line human-readable summary. */
    std::string Summary() const;

  private:
    /** Sort the retained samples if new ones arrived since last sort. */
    void EnsureSorted() const;

    std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Fixed-bin histogram accumulator for million-sample telemetry.
 *
 * Unlike SampleStats it retains no samples: Add() is O(1) and the
 * footprint is the bin array, so it suits counters that see one
 * sample per simulated token or iteration. Percentiles are estimated
 * by linear interpolation inside the covering bin (error bounded by
 * the bin width); exact min/max/mean are tracked alongside.
 *
 * Samples below `lo` or at/above `hi` land in dedicated underflow /
 * overflow bins and still count toward the moments and percentiles
 * (clamped to the observed min/max).
 */
class HistogramStats
{
  public:
    /**
     * @param lo inclusive lower bound of the binned range.
     * @param hi exclusive upper bound, > lo.
     * @param num_bins number of equal-width bins, >= 1.
     */
    HistogramStats(double lo, double hi, int num_bins);

    /** Record one sample. O(1), no allocation. */
    void Add(double value);

    long Count() const { return count_; }

    /** Arithmetic mean (0 if empty). Exact, not bin-estimated. */
    double Mean() const;

    /** Minimum sample (0 if empty). Exact. */
    double Min() const;

    /** Maximum sample (0 if empty). Exact. */
    double Max() const;

    /** Sum of all samples. Exact. */
    double Sum() const { return sum_; }

    /** Samples below the binned range. */
    long Underflow() const { return underflow_; }

    /** Samples at or above the binned range. */
    long Overflow() const { return overflow_; }

    /**
     * Estimated percentile (p in [0, 100]) by linear interpolation
     * within the covering bin; clamped to the exact observed
     * [Min(), Max()]. 0 if empty.
     */
    double Percentile(double p) const;

    /** Per-bin counts (excludes the underflow/overflow bins). */
    const std::vector<long>& Bins() const { return bins_; }

    /** Inclusive lower edge of bin i. */
    double BinLow(int i) const;

    /** Exclusive upper edge of bin i. */
    double BinHigh(int i) const { return BinLow(i + 1); }

    /**
     * Fold another histogram in. The two must have identical bin
     * geometry (lo, hi, bin count).
     */
    void Merge(const HistogramStats& other);

    /** Reset to empty, keeping the bin geometry. */
    void Clear();

    /** One-line human-readable summary. */
    std::string Summary() const;

  private:
    double lo_;
    double hi_;
    double bin_width_;
    std::vector<long> bins_;
    long underflow_ = 0;
    long overflow_ = 0;
    long count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Geometric mean of a vector of positive values (0 if empty). */
double GeoMean(const std::vector<double>& values);

}  // namespace pod

#endif  // POD_COMMON_STATS_H
