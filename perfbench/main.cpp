// softqos_perfbench: runs one benchmark workload and prints one JSON object
// on its last stdout line (metrics, operation counts, correctness checks,
// and the build/machine fingerprint). perfbench/run.py builds this binary
// and turns that object into the benchmark's result line.
//
//   softqos_perfbench --workload fig3|city|chaos|churn --seed N
//                     --seconds S --trace 0|1
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

/// Effective parallelism: the same spin work on 1 thread and on every
/// hardware thread at once. A machine delivering N CPUs finishes the
/// parallel batch in the single-thread time, so N * t1 / tN estimates the
/// CPUs actually available (nproc can overstate it in a container).
double effectiveParallelism(unsigned threads) {
  auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 20'000'000; ++i) x = x + i;
  };
  std::vector<double> estimates;
  for (int rep = 0; rep < 3; ++rep) {
    const perfbench::Stopwatch one;
    spin();
    const double t1 = one.seconds();
    const perfbench::Stopwatch all;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(spin);
    for (std::thread& t : pool) t.join();
    const double tn = all.seconds();
    if (tn > 0) estimates.push_back(static_cast<double>(threads) * t1 / tn);
  }
  return perfbench::median(estimates);
}

std::string fingerprintJson() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"compiler\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
                "\"effective_parallelism\": %.2f}",
                PERFBENCH_CXX, PERFBENCH_BUILD_TYPE, nproc,
                effectiveParallelism(nproc));
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "softqos_perfbench: %s\nusage: softqos_perfbench --workload "
               "fig3|city|chaos|churn --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || options.seconds <= 0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      options.trace = value[0] == '1';
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!haveWorkload) return usage("no --workload");

  Report report;
  try {
    if (options.workload == "fig3") {
      perfbench::runFig3(options, report);
    } else if (options.workload == "city") {
      perfbench::runCity(options, report);
    } else if (options.workload == "chaos") {
      perfbench::runChaos(options, report);
    } else if (options.workload == "churn") {
      perfbench::runChurn(options, report);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "softqos_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  std::printf("{\"fingerprint\": %s, \"report\": %s}\n", fingerprintJson().c_str(),
              report.json().c_str());
  return 0;
}
