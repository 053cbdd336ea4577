// cqos_perfbench: the CQoS call benchmark.
//
//   cqos_perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//   cqos_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics with the tracer off; --trace 1
// measures the per-layer metrics (see perfbench/README.md). Every metric is
// printed on its own line with unit and sample count, and the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when a reply or the final server state fails its check.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "micro/standard.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

void usage() {
  std::fprintf(stderr,
               "usage: cqos_perfbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       cqos_perfbench --self-test\n");
  std::exit(2);
}

/// Prints one workload's metrics; returns whether its checks held.
bool report(const std::string& workload, const RunResult& r) {
  const double failed_frac =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("workload %s\n", workload.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-48s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  %-48s %16.8f %-6s %llu failed of %llu attempted\n",
              "failed_frac", failed_frac, "ratio",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& v : r.violations) {
    std::printf("  CHECK FAILED: %s\n", v.c_str());
  }
  const bool correct = r.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const Metric& m : r.metrics) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int failed = span_self_test();
      std::printf("span self-test: %s\n", failed == 0 ? "ok" : "FAILED");
      return failed == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else {
      usage();
    }
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) usage();
  std::vector<const WorkloadSpec*> specs;
  if (workload == "all") {
    for (const WorkloadSpec& w : workloads()) specs.push_back(&w);
  } else if (const WorkloadSpec* w = find_workload(workload)) {
    specs.push_back(w);
  } else {
    usage();
  }

  cqos::micro::register_standard_micro_protocols();
  bool correct = true;
  for (const WorkloadSpec* spec : specs) {
    std::printf("# %s seed=%llu seconds=%g trace=%d\n", spec->name.c_str(),
                static_cast<unsigned long long>(seed), seconds, trace);
    RunResult r = trace == 1 ? run_traced(*spec, seed, seconds)
                             : run_end_to_end(*spec, seed, seconds);
    correct = report(spec->name, r) && correct;
  }
  return correct ? 0 : 1;
}
