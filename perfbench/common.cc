#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "constraints/evaluator.h"
#include "dtd/validator.h"
#include "trace.h"

namespace xbench {

void Gate::Fail(const std::string& what) {
  failures_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_.size() < 8) first_.push_back(what);
}

std::vector<std::string> Gate::FirstFailures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"net.rtt_p50_ms.check_session", "ms"},
          {"net.rtt_p50_ms.check_oneshot", "ms"},
          {"net.rtt_p50_ms.implies", "ms"},
          {"net.rtt_p50_ms.commit", "ms"},
          {"net.ping_rtt_p50_ms", "ms"},
          {"net.json_parse_ms", "ms"},
          {"net.json_encode_ms", "ms"},
          {"net.bytes_per_request", "bytes"},
          {"net.shed_share", "share"},
          {"net.unattributed_ms", "ms"},
          {"dtd.parse_ms", "ms"},
          {"constraints.parse_ms", "ms"},
          {"core.artifact_cache.lookup_ms.memory", "ms"},
          {"core.artifact_cache.lookup_ms.mmap", "ms"},
          {"core.artifact_cache.lookup_ms.cold", "ms"},
          {"core.artifact_cache.memory_hit_share", "share"},
          {"core.compile_ms", "ms"},
          {"core.spec_session.setup_ms", "ms"},
          {"core.spec_session.check_ms", "ms"},
          {"core.spec_session.implies_ms", "ms"},
          {"core.spec_session.commit_ms", "ms"},
          {"core.spec_session.memo_hit_share", "share"},
          {"core.spec_session.fresh_fallback_share", "share"},
          {"core.batch.call_ms", "ms"},
          {"core.batch.cpu_per_wall", "x"},
          {"core.batch.worker_busy_share", "share"},
          {"core.batch.stage_setup_ms", "ms"},
          {"core.batch.stage_memo_ms", "ms"},
          {"core.batch.stage_solve_ms", "ms"},
          {"core.batch.session_reuse_share", "share"},
          {"core.batch.speedup_x", "x"},
          {"core.encoding.build_ms", "ms"},
          {"core.encoding.variables", "count"},
          {"core.encoding.rows", "count"},
          {"dtd.simplify_ms", "ms"},
          {"ilp.solve_ms", "ms"},
          {"ilp.nodes", "count/query"},
          {"ilp.lp_pivots", "count/query"},
          {"ilp.search_depth", "count/query"},
          {"ilp.warm_start_share", "share"},
          {"ilp.bland_fallback_share", "share"},
          {"ilp.num_promotion_rate", "share"},
          {"ilp.arena_bytes_per_query", "bytes"},
          {"core.witness.build_verify_ms", "ms"},
          {"core.witness.nodes", "count/query"},
          {"dtd.validate_ms", "ms"},
          {"constraints.evaluate_ms", "ms"},
          {"host.spin_speedup_x", "x"},
          {"trace.overhead_share", "share"},
          {"trace.spans", "count"},
          {"trace.throughput_qps", "1/s"},
          {"fail_share", "share"},
      };
  return *metrics;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const size_t beyond = std::max(std::min<size_t>(10, n - 1), n / 20);
  tail.value = samples[n - 1 - beyond];
  tail.beyond = beyond;
  tail.percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return tail;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ull;
  return Mix(state_, 0);
}

namespace {

std::string AttrList(const std::vector<std::string>& attrs) {
  std::string out = "(";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += attrs[i];
  }
  return out + ")";
}

}  // namespace

std::string ConstraintText(const xicc::Constraint& c) {
  using xicc::ConstraintKind;
  const std::string lhs = c.type1 + AttrList(c.attrs1);
  const std::string rhs = c.type2 + AttrList(c.attrs2);
  switch (c.kind) {
    case ConstraintKind::kKey:
      return "key " + lhs;
    case ConstraintKind::kNegKey:
      return "!key " + lhs;
    case ConstraintKind::kInclusion:
      return "inclusion " + lhs + " <= " + rhs;
    case ConstraintKind::kNegInclusion:
      return "!inclusion " + lhs + " <= " + rhs;
    case ConstraintKind::kForeignKey:
      return "fk " + lhs + " => " + rhs;
  }
  return "";
}

std::string SigmaText(const xicc::ConstraintSet& sigma) {
  std::string out;
  for (const xicc::Constraint& c : sigma.constraints()) {
    out += ConstraintText(c) + "\n";
  }
  return out;
}

std::string DoctypeText(const xicc::Dtd& dtd) {
  return "<!DOCTYPE " + dtd.root() + " [\n" + dtd.ToString() + "]>\n";
}

std::string RecheckWitness(const xicc::XmlTree& witness,
                           const xicc::Dtd& dtd,
                           const xicc::ConstraintSet& sigma) {
  {
    ScopedSpan span("dtd.ValidateXml");
    const xicc::ValidationReport report = xicc::ValidateXml(witness, dtd);
    if (!report.valid) return "witness invalid: " + report.ToString();
  }
  ScopedSpan span("constraints.Evaluate");
  const xicc::EvaluationReport report = xicc::Evaluate(witness, sigma);
  if (!report.satisfied) return "witness violates sigma: " + report.ToString();
  return "";
}

PinToOneCpu::PinToOneCpu() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpu_ = c;
  }
  if (cpu_ < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu_, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinToOneCpu::~PinToOneCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::string PinToOneCpu::Note() const {
  return pinned_ ? "pinned to cpu " + std::to_string(cpu_)
                 : "could not pin a cpu";
}

namespace {

/// A fixed chunk of integer work the optimiser cannot drop.
uint64_t SpinChunk(uint64_t x) {
  for (int i = 0; i < 2'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

/// Wall ms for `threads` threads each running `chunks` spin chunks.
double SpinWall(size_t threads, int chunks) {
  std::vector<std::thread> pool;
  std::vector<uint64_t> sink(threads, 0);
  const double start = NowMs();
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t, chunks] {
      uint64_t x = t + 1;
      for (int c = 0; c < chunks; ++c) x = SpinChunk(x);
      sink[t] = x;
    });
  }
  for (auto& th : pool) th.join();
  const double wall = NowMs() - start;
  volatile uint64_t keep = 0;
  for (uint64_t v : sink) keep = keep + v;
  (void)keep;
  return wall;
}

}  // namespace

double SpinSpeedup(size_t threads, int reps) {
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    const double one = SpinWall(1, 8);
    const double many = SpinWall(threads, 8);
    // Same per-thread work: N threads do N× the work of one.
    ratios.push_back(static_cast<double>(threads) * one / many);
  }
  return Median(ratios);
}

}  // namespace xbench
