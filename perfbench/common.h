#pragma once

// Shared plumbing of the benchmark program (xbench): run configuration, the result
// record every workload fills in, timing and resource probes, text
// rendering of generated specs, and the independent witness re-check.

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "constraints/constraint.h"
#include "dtd/dtd.h"
#include "xml/tree.h"

namespace xbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short measurement, same workloads and gates.
  bool smoke = false;
  /// Scratch directory for artifacts and span dumps (inside the checkout).
  std::string work_dir = ".bench_build/run";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `mismatches` are correctness-gate
/// failures (wrong verdict, witness that does not check); `failed` counts
/// requests that ended without a verdict.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// Thread-safe collector of correctness-gate failures.
class Gate {
 public:
  void Fail(const std::string& what);
  size_t failures() const { return failures_.load(); }
  std::vector<std::string> FirstFailures() const;

 private:
  std::atomic<size_t> failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> first_;
};

/// Every per-layer metric name with its unit, in BENCHMARK.json order. A
/// traced run reports all of them; a layer that does no work on the
/// workload reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

double NowMs();
/// Process user + system CPU time (getrusage RUSAGE_SELF).
double ProcessCpuMs();
/// ru_maxrss of this process, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest percentile with at least 10 samples beyond it (the
/// 11th-largest sample), capped at p95 once there are 200 samples or more,
/// and the percentile that sample sits at. The cap keeps the tail a
/// property of the code rather than of the host: on a shared 4-vCPU VM a
/// single stall phase of a second or two doubled p98 and p99 in one run of
/// five, while p95 moved no more than the median.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> samples);

/// splitmix64: derives independent input streams from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t stream);

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Constraint text in the grammar ParseConstraints accepts.
std::string ConstraintText(const xicc::Constraint& c);
std::string SigmaText(const xicc::ConstraintSet& sigma);

/// `<!DOCTYPE root [ ... ]>` around Dtd::ToString(). The wrapper pins the
/// root: the bare declaration list does not round-trip for DTDs whose root
/// is not declared first (AuctionDtd: the parser would take region1).
std::string DoctypeText(const xicc::Dtd& dtd);

/// Re-checks a witness independently of the solver: ValidateXml against
/// `dtd` and Evaluate of `sigma` on it, each under its own span. Returns
/// "" when the witness checks, or what failed.
std::string RecheckWitness(const xicc::XmlTree& witness,
                           const xicc::Dtd& dtd,
                           const xicc::ConstraintSet& sigma);

/// Confines the calling thread, and every thread it starts while the guard
/// lives, to the last CPU it may run on, and restores the previous CPU set
/// when destroyed. daemon_authoring runs under it: its round trips are
/// ~0.1 ms, and across idle vCPUs of a shared VM they mostly measured how
/// fast the host woke them, which swung throughput 2.4× between runs.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  /// "pinned to cpu N", or why not, for the run's "# " lines.
  std::string Note() const;

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
  bool pinned_ = false;
};

/// Pure-CPU spin, 1 thread against `threads` threads, interleaved reps;
/// the ratio of work rates is the parallel ceiling of this host.
double SpinSpeedup(size_t threads, int reps);

}  // namespace xbench
