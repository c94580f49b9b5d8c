// xbench: runs one named workload against the library and the
// xiccd daemon, checks every verdict, and prints the metrics.
//
//   xbench --workload <batch_fixed_dtd|daemon_authoring|lip_hard>
//          --seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// Lines starting with "# " describe the machine, the build and the run;
// the last line is one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// perfbench/run.py builds this binary and is the intended entry point.

#include <malloc.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef XBENCH_COMPILER
#define XBENCH_COMPILER "unknown"
#endif
#ifndef XBENCH_BUILD_TYPE
#define XBENCH_BUILD_TYPE "unknown"
#endif

namespace xbench {
namespace {

constexpr size_t kSpinThreads = 4;

/// glibc raises its mmap threshold each time it frees an mmapped chunk, so
/// whether the solver's large scratch buffers come from mmap or the heap
/// depends on what the set-up happened to allocate. Left dynamic, that
/// history moved lip_hard throughput by up to 30% between seeds (seed 2:
/// 5.1 against 6.7 instances/s with the thresholds fixed). Fixing both
/// thresholds makes a run's speed independent of its set-up's allocations.
constexpr int kMmapThresholdBytes = 32 << 20;
constexpr int kTrimThresholdBytes = 64 << 20;

int Usage(const char* why) {
  std::fprintf(stderr,
               "xbench: %s\nusage: xbench --workload W --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void AppendMetrics(const std::map<std::string, Metric>& metrics,
                   std::string* out) {
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    *out += (first ? "" : ", ");
    *out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
}

int Main(int argc, char** argv) {
  Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (arg == "--trace") {
      cfg.trace = std::string(v) == "1";
      have_trace = std::string(v) == "0" || std::string(v) == "1";
    } else if (arg == "--work-dir") {
      cfg.work_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  mkdir(cfg.work_dir.c_str(), 0755);
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes);

  Gate gate;
  Outcome out;
  if (cfg.workload == "batch_fixed_dtd") {
    out = RunBatchFixedDtd(cfg, &gate);
  } else if (cfg.workload == "daemon_authoring") {
    out = RunDaemonAuthoring(cfg, &gate);
  } else if (cfg.workload == "lip_hard") {
    out = RunLipHard(cfg, &gate);
  } else {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }

  const double spin = SpinSpeedup(kSpinThreads, cfg.smoke ? 1 : 3);
  std::printf(
      "# machine: nproc=%u cpu=\"%s\" compiler=\"%s\" build_type=%s "
      "host.spin_speedup_x=%.3f (%zu threads)\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      XBENCH_COMPILER, XBENCH_BUILD_TYPE, spin, kSpinThreads);
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? 1 : 0);
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());

  std::map<std::string, Metric> metrics;
  if (cfg.trace) {
    out.Layer("host.spin_speedup_x", spin, "x");
    std::set<std::string> known;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      known.insert(name);
      metrics[name] = {0.0, unit};  // 0 = the layer idles on this workload.
    }
    for (const auto& [name, metric] : out.per_layer) {
      if (known.count(name) == 0) gate.Fail("unlisted per-layer metric " + name);
      metrics[name] = metric;
    }
  } else {
    metrics = out.end_to_end;
  }

  const bool correct = gate.failures() == 0 && out.attempted > 0;
  for (const std::string& failure : gate.FirstFailures()) {
    std::printf("# GATE FAILURE: %s\n", failure.c_str());
  }
  if (gate.failures() > 0) {
    std::printf("# %zu correctness-gate failures\n", gate.failures());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<size_t>(1, out.attempted));
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  AppendMetrics(metrics, &line);
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace xbench

int main(int argc, char** argv) { return xbench::Main(argc, argv); }
