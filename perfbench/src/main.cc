// perfbench: the repository benchmark binary.
//
//   perfbench --workload <pagerank_bulk|cc_workset|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--source-id <id>]
//             [--state-dir <dir>]
//
// Prints a fingerprint line, human-readable detail on stderr, and as the
// last stdout line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics of a
// separate traced run with --trace 1. Exits non-zero without a result line
// when it cannot run as configured (non-Release build, a pinned SFDF_*
// knob in the environment, bad arguments).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <thread>

#include "common.h"
#include "common/env.h"

namespace {

/// (steal, total) jiffies of all CPUs from /proc/stat; zeros if unreadable.
std::pair<double, double> CpuSteal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0, steal = 0, value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

constexpr const char* kForbiddenEnv[] = {"SFDF_TRACE", "SFDF_TRACE_OUT",
                                         "SFDF_THREADS", "SFDF_ENGINE_WORKERS",
                                         "SFDF_SCALE"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--source-id <id>] "
               "[--state-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--source-id") {
      config.source_id = value;
    } else if (flag == "--state-dir") {
      config.state_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (config.seconds <= 0) return Usage("--seconds must be positive");

  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions on\n");
  return 3;
#endif
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; unset it (each workload pins its "
                   "own tracing, parallelism and pool sizes)\n",
                   name);
      return 3;
    }
  }

  struct Workload {
    const char* name;
    void (*run)(const perfbench::Config&, perfbench::Report*);
    int workers;
  };
  constexpr Workload kWorkloads[] = {
      {"pagerank_bulk", perfbench::RunPagerankBulk, 4},
      {"cc_workset", perfbench::RunCcWorkset, 4},
      {"serve_mixed", perfbench::RunServeMixed, 2},
  };
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  config.parallelism = 4;
  config.workers = workload->workers;
  // The serving tenant's optimizer compiles at the process default
  // parallelism; pin it so no workload depends on the host's core count.
  sfdf::SetDefaultParallelismForTesting(config.parallelism);

  std::printf(
      "fingerprint {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"parallelism\": %d, "
      "\"engine_workers\": %d}\n",
      std::thread::hardware_concurrency(), PERFBENCH_CXX_COMPILER,
      PERFBENCH_BUILD_TYPE, config.source_id.c_str(), config.workload.c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds,
      config.trace ? 1 : 0, config.parallelism, config.workers);
  std::fflush(stdout);

  perfbench::Report report;
  const auto [steal0, total0] = CpuSteal();
  workload->run(config, &report);
  const auto [steal1, total1] = CpuSteal();
  // Stolen vCPU time is one visible cause of run-to-run drift on a shared
  // host; it is printed so a noisy run can be told from a slow program.
  if (total1 > total0) {
    std::fprintf(stderr, "host: %.1f%% of CPU time stolen during the run\n",
                 100.0 * (steal1 - steal0) / (total1 - total0));
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb());
  report.Set("error_frac",
             report.attempted() > 0
                 ? static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted())
                 : 1.0);
  const bool printed = report.Print(config.trace
                                        ? perfbench::PerLayerMetrics()
                                        : perfbench::EndToEndMetrics());
  return printed ? 0 : 1;
}
