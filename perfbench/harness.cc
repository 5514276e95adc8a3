/**
 * @file
 * Implementation of the perfbench measurement plumbing.
 */
#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double
Now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double
ClockSeconds(clockid_t clock)
{
    timespec ts;
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double
ThreadCpu()
{
    return ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
ProcessCpu()
{
    return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
PeakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
Samples::Sum() const
{
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum;
}

double
Samples::Mean() const
{
    return values_.empty() ? 0.0 : Sum() / static_cast<double>(Count());
}

double
Samples::Pct(double p) const
{
    if (values_.empty()) return 0.0;
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
    double rank = (p / 100.0) * static_cast<double>(values_.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

bool
WriteSpans(const std::string& path, const std::vector<Span>& spans)
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    double origin = spans.empty() ? 0.0 : spans.front().start;
    for (const Span& s : spans) origin = std::min(origin, s.start);
    std::fprintf(out, "id\tparent\tname\tref\tstart_us\tend_us\n");
    for (const Span& s : spans) {
        std::fprintf(out, "%lld\t%lld\t%s\t%lld\t%.3f\t%.3f\n",
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent), s.name,
                     static_cast<long long>(s.ref),
                     (s.start - origin) * 1e6, (s.end - origin) * 1e6);
    }
    return std::fclose(out) == 0;
}

void
ItemLatencies::EndItem(size_t min_calls)
{
    if (current_.Count() >= min_calls && current_.Count() > 0) {
        p50_.Add(current_.Median());
        p99_.Add(current_.Pct(99.0));
        calls_ += static_cast<long>(current_.Count());
    }
    current_ = Samples();
}

void
ItemLatencies::Put(RunResult& result) const
{
    result.Put("op_p50_us", p50_.Mean() * 1e6, "us", calls_);
    result.Put("op_p99_us", p99_.Mean() * 1e6, "us", calls_);
    char line[120];
    std::snprintf(line, sizeof(line),
                  "op latency: %ld calls in %zu items", calls_, p50_.Count());
    result.notes.push_back(line);
}

void
PutItemRate(RunResult& result, const Samples& rates, long finished)
{
    result.Put("items_per_s", rates.Median(), "1/s", finished);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "items_per_s over %zu items: min %.6g, median %.6g, "
                  "max %.6g",
                  rates.Count(), rates.Pct(0.0), rates.Median(),
                  rates.Pct(100.0));
    result.notes.push_back(line);
}

void
RunResult::Check(bool ok, const std::string& what)
{
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 10) notes.push_back("FAILED check: " + what);
}

}  // namespace perfbench
