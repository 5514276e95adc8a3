/**
 * @file
 * perfbench: one workload per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--span-out PATH]
 *   perfbench --fig11
 *
 * Prints diagnostics and one "metric value unit (n=samples)" line per
 * metric, then, as the last line, one JSON object with the keys
 * correct, attempted, failed and metrics. --trace 1 reports the
 * per-layer metrics of a traced run and writes its spans to PATH.
 * --fig11 prints only the paper_err.* metrics of the full Fig. 11 grid.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

int
Usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload kernel_sweep|serve_offline|"
                 "fleet_sessions --seed N --seconds S --trace 0|1 "
                 "[--span-out PATH]\n       %s --fig11\n",
                 argv0, argv0);
    return 2;
}

void
PrintJson(const RunResult& result)
{
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                result.failed == 0 ? "true" : "false", result.attempted,
                result.failed);
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const auto& m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int
main(int argc, char** argv)
{
    Options options;
    bool fig11 = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--fig11") {
            fig11 = true;
        } else if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            options.trace = std::atoi(argv[++i]) != 0;
        } else if (arg == "--span-out" && has_value) {
            options.span_out = argv[++i];
        } else {
            return Usage(argv[0]);
        }
    }
    if (fig11) {
        RunResult result;
        perfbench::PutPaperErrors(result, perfbench::MeasureFig11());
        for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
        PrintJson(result);
        return 0;
    }
    if (!have_seed || options.seconds <= 0.0) return Usage(argv[0]);

    RunResult result;
    if (options.workload == "kernel_sweep") {
        result = perfbench::RunKernelSweep(options);
    } else if (options.workload == "serve_offline") {
        result = perfbench::RunServeOffline(options);
    } else if (options.workload == "fleet_sessions") {
        result = perfbench::RunFleetSessions(options);
    } else {
        return Usage(argv[0]);
    }

    for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
    for (auto& m : result.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
            return 1;
        }
        std::printf("%-40s %.6g %s (n=%ld)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
    std::printf("error_rate %.6g (failed %ld / attempted %ld)\n",
                result.attempted > 0
                    ? double(result.failed) / double(result.attempted)
                    : 0.0,
                result.failed, result.attempted);
    if (options.trace && !options.span_out.empty()) {
        if (!perfbench::WriteSpans(options.span_out, result.spans)) {
            std::fprintf(stderr, "cannot write %s\n",
                         options.span_out.c_str());
            return 1;
        }
        std::printf("spans: %zu written to %s\n", result.spans.size(),
                    options.span_out.c_str());
    }
    PrintJson(result);
    return 0;
}
