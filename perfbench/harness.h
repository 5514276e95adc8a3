/**
 * @file
 * Measurement plumbing shared by the perfbench workloads: a host
 * clock, sample sets, in-memory spans with self-time attribution,
 * peak RSS, and the metric list every run prints.
 *
 * Host quantities (wall clock, RSS) and simulated quantities (outputs
 * of the model) are kept apart by name: every metric's description in
 * perfbench/METRICS.md says which kind it is.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Host monotonic clock, seconds. */
double Now();

/**
 * Host CPU time of the calling thread, seconds. The timed sections of
 * the end-to-end metrics use it instead of the wall clock: on a shared
 * host, time during which this thread was not running is left out.
 */
double ThreadCpu();

/** Host CPU time of every thread of this process, seconds. Exact only
 *  while the other threads are blocked. */
double ProcessCpu();

/** Peak resident set size of this process so far, in MB. */
double PeakRssMb();

/**
 * A set of host or simulated samples with linearly interpolated
 * percentiles (the rule pod::SampleStats uses). The benchmark keeps its
 * own copy so that a change to the program's statistics code cannot
 * change how the benchmark measures.
 */
class Samples
{
  public:
    void Add(double v)
    {
        values_.push_back(v);
        sorted_ = false;
    }
    size_t Count() const { return values_.size(); }
    double Sum() const;
    double Mean() const;
    /** p in [0, 100]; 0 when empty. */
    double Pct(double p) const;
    double Median() const { return Pct(50.0); }

  private:
    mutable std::vector<double> values_;
    mutable bool sorted_ = true;
};

/** One traced call into a layer, in host seconds. */
struct Span
{
    const char* name = "";
    int64_t id = 0;
    int64_t parent = -1;  ///< -1 for a root span.
    int64_t ref = -1;     ///< Request / batch id, -1 when none.
    double start = 0.0;
    double end = 0.0;
};

/**
 * Append-only span store for one thread of control. Spans stay in
 * memory until the run writes them out. Ids are unique across
 * recorders because each one draws from its own id range.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(int64_t id_base = 0) : id_base_(id_base) {}

    /** Record a span whose end Close() fills in. Returns its id. */
    int64_t Open(const char* name, double start, int64_t parent,
                 int64_t ref = -1)
    {
        return Add(name, start, start, parent, ref);
    }
    void Close(int64_t id, double end) { spans_[id - id_base_].end = end; }

    /** Record a finished span. Returns its id. */
    int64_t Add(const char* name, double start, double end,
                int64_t parent, int64_t ref = -1)
    {
        int64_t id = id_base_ + static_cast<int64_t>(spans_.size());
        spans_.push_back({name, id, parent, ref, start, end});
        return id;
    }

    const std::vector<Span>& Spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    int64_t id_base_;
};

/** Write spans as tab-separated text, one per line. */
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    long samples = 1;  ///< Sample count behind the value.
};

/** What one workload run hands back to main(). */
struct RunResult
{
    std::vector<Metric> metrics;
    long attempted = 0;
    long failed = 0;
    /** Free-form lines printed before the result (diagnostics). */
    std::vector<std::string> notes;
    std::vector<Span> spans;

    void Put(const std::string& name, double value, const std::string& unit,
             long samples = 1)
    {
        metrics.push_back({name, value, unit, samples});
    }
    /** Count one checked operation, failed or not. */
    void Check(bool ok, const std::string& what);
};

/**
 * Host latencies of the driving call, grouped into items (one serving
 * run, one fleet run, or a block of kernel calls). op_p50_us and
 * op_p99_us are each item's percentile averaged over the run's items.
 * Host contention on a shared machine comes and goes over seconds; a
 * percentile pooled over a whole run jumps between the contended and
 * the quiet level, while the average over items moves in proportion
 * to the time spent in each.
 */
class ItemLatencies
{
  public:
    Samples& Current() { return current_; }
    /** Close the current item if it holds at least `min_calls` calls;
     *  otherwise drop its latencies. */
    void EndItem(size_t min_calls = 1);
    void Put(RunResult& result) const;

  private:
    Samples current_;
    Samples p50_, p99_;
    long calls_ = 0;
};

/** Put items_per_s as the median of per-item rates, and note their
 *  range. `finished` is the total count of work units behind them. */
void PutItemRate(RunResult& result, const Samples& rates, long finished);

/** Parsed command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string span_out;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
