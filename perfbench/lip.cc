// lip_hard: the Theorem 4.7 NP-hardness gadget. Seeded RandomLip
// instances (10×10, 3 ones per row) are encoded with
// EncodeLipAsConsistency and checked one at a time through the one-shot
// CheckConsistency API on a single thread, each under a deadline far above
// the slowest instance. Every verdict is compared with the brute-force
// LipHasBinarySolution oracle, which shares no code with the solver.

#include "core/cardinality_encoding.h"
#include "core/conditional_solver.h"
#include "dtd/simplify.h"
#include "trace.h"
#include "workloads.h"
#include "workloads/generators.h"

namespace xbench {
namespace {

/// Per-instance deadline: the slowest 10×10 instance takes under 1 s on a
/// 4-vCPU x86-64 VM, so a miss means the solver regressed by 20× or hung.
constexpr int64_t kDeadlineMs = 20'000;

struct LipInstance {
  xicc::workloads::LipEncoding encoding;
  bool oracle = false;
};

/// The instance sequence repeats consistent, inconsistent, inconsistent:
/// a fixed verdict mix keeps the latency median inside the inconsistent
/// cluster and the throughput comparable across seeds.
std::vector<LipInstance> Setup(const Config& cfg) {
  const size_t size = cfg.smoke ? 6 : 10;
  const size_t ones = cfg.smoke ? 2 : 3;
  const size_t count = cfg.smoke ? 6 : 150;
  std::vector<LipInstance> consistent, inconsistent;
  for (uint64_t i = 0; consistent.size() < (count + 2) / 3 ||
                       inconsistent.size() < count - (count + 2) / 3;
       ++i) {
    const xicc::workloads::BinaryLipInstance instance =
        xicc::workloads::RandomLip(Mix(cfg.seed, i), size, size, ones);
    LipInstance lip;
    lip.oracle = xicc::workloads::LipHasBinarySolution(instance);
    lip.encoding = xicc::workloads::EncodeLipAsConsistency(instance);
    (lip.oracle ? consistent : inconsistent).push_back(std::move(lip));
  }
  std::vector<LipInstance> sequence;
  size_t c = 0, n = 0;
  for (size_t k = 0; k < count; ++k) {
    if (k % 3 == 0 && c < consistent.size()) {
      sequence.push_back(std::move(consistent[c++]));
    } else if (n < inconsistent.size()) {
      sequence.push_back(std::move(inconsistent[n++]));
    }
  }
  return sequence;
}

}  // namespace

Outcome RunLipHard(const Config& cfg, Gate* gate) {
  Outcome out;
  double setup_s = 0.0;
  const std::vector<LipInstance> instances =
      RepeatSetup(cfg.smoke ? 1 : 5, [&] { return Setup(cfg); }, &setup_s,
                  &out.notes);

  std::vector<double> latencies;
  double busy_ms = 0.0, cpu_ms = 0.0;
  size_t verdicts = 0;
  IlpTotals ilp;

  const double measure_ms = cfg.seconds * 1e3 * (cfg.trace ? 0.6 : 1.0);
  Tracer::SetEnabled(cfg.trace);
  const double start = NowMs();
  for (size_t k = 0; NowMs() - start < measure_ms; ++k) {
    const size_t i = k % instances.size();
    const LipInstance& lip = instances[i];
    Tracer::SetRequest(k + 1);
    xicc::ConsistencyOptions options;
    options.stop.deadline = xicc::Deadline::After(kDeadlineMs);
    const double cpu0 = ProcessCpuMs();
    const double t0 = NowMs();
    xicc::Result<xicc::ConsistencyResult> result =
        xicc::Status::Internal("not run");
    {
      ScopedSpan span("core.CheckConsistency");
      result = xicc::CheckConsistency(lip.encoding.dtd, lip.encoding.sigma,
                                      options);
    }
    const double wall = NowMs() - t0;
    cpu_ms += ProcessCpuMs() - cpu0;
    busy_ms += wall;
    latencies.push_back(wall);
    out.attempted++;
    if (!result.ok()) {
      out.failed++;
      continue;
    }
    verdicts++;
    if (result->consistent != lip.oracle) {
      gate->Fail("lip verdict differs from LipHasBinarySolution");
    }
    if (result->consistent) {
      if (!result->witness.has_value()) {
        gate->Fail("consistent lip verdict without a witness");
      } else {
        const std::string why = RecheckWitness(
            *result->witness, lip.encoding.dtd, lip.encoding.sigma);
        if (!why.empty()) gate->Fail(why);
      }
    }
    if (cfg.trace) AddIlp(*result, &ilp);
  }
  Tracer::SetEnabled(false);

  if (!cfg.trace) {
    ReportEndToEnd(latencies, verdicts, busy_ms, cpu_ms, setup_s, &out);
    return out;
  }

  // -- Per-layer probes (traced run only) ---------------------------------
  // The pipeline's stages called one by one on the same instances:
  // SimplifyDtd, BuildCardinalityEncoding, SolveWithConditionals.
  const std::vector<Span> loop_spans = Tracer::Collect();
  Tracer::SetEnabled(true);
  std::vector<double> variables, rows;
  const double probe_ms = cfg.seconds * 1e3 * 0.25;
  double probe_start = NowMs();
  for (size_t i = 0; i < instances.size() && NowMs() - probe_start < probe_ms;
       ++i) {
    const LipInstance& lip = instances[i];
    {
      ScopedSpan span("dtd.SimplifyDtd");
      auto simplified = xicc::SimplifyDtd(lip.encoding.dtd);
      if (!simplified.ok()) gate->Fail("SimplifyDtd failed");
    }
    const xicc::ConstraintSet normalized = lip.encoding.sigma.Normalize();
    xicc::Result<xicc::CardinalityEncoding> encoding =
        xicc::Status::Internal("not run");
    {
      ScopedSpan span("core.BuildCardinalityEncoding");
      encoding = xicc::BuildCardinalityEncoding(lip.encoding.dtd, normalized);
    }
    if (!encoding.ok()) {
      gate->Fail("BuildCardinalityEncoding failed");
      continue;
    }
    variables.push_back(static_cast<double>(encoding->system.NumVariables()));
    rows.push_back(static_cast<double>(encoding->system.NumConstraints()));
    xicc::IlpOptions ilp_options;
    ilp_options.stop.deadline = xicc::Deadline::After(kDeadlineMs);
    ScopedSpan span("ilp.SolveWithConditionals");
    auto solved = xicc::SolveWithConditionals(
        encoding->system, encoding->conditionals, ilp_options);
    if (!solved.ok()) gate->Fail("SolveWithConditionals did not finish");
  }

  // Witness build + verify: each consistent instance checked with the
  // witness off and on back to back (order alternating), so host drift
  // hits both sides of the difference alike.
  std::vector<double> deltas;
  probe_start = NowMs();
  for (size_t i = 0; i < instances.size() && NowMs() - probe_start < probe_ms;
       ++i) {
    if (!instances[i].oracle) continue;
    double ms[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
      const bool witness = (pass + deltas.size()) % 2 == 1;
      xicc::ConsistencyOptions options;
      options.build_witness = witness;
      options.stop.deadline = xicc::Deadline::After(kDeadlineMs);
      const double t0 = NowMs();
      ScopedSpan span(witness ? "core.CheckConsistency.witness"
                              : "core.CheckConsistency.no_witness");
      auto r = xicc::CheckConsistency(instances[i].encoding.dtd,
                                      instances[i].encoding.sigma, options);
      if (!r.ok() || !r->consistent) gate->Fail("witness on/off check differs");
      ms[witness ? 1 : 0] = NowMs() - t0;
    }
    deltas.push_back(ms[1] - ms[0]);
  }
  Tracer::SetEnabled(false);
  const auto self = FinishTrace(cfg, loop_spans, busy_ms, verdicts,
                                Tracer::Collect(), &out);
  auto median_of = [&](const char* name) { return MedianOf(self, name); };

  out.Layer("dtd.simplify_ms", median_of("dtd.SimplifyDtd"), "ms");
  out.Layer("core.encoding.build_ms",
            median_of("core.BuildCardinalityEncoding"), "ms");
  out.Layer("core.encoding.variables", Median(variables), "count");
  out.Layer("core.encoding.rows", Median(rows), "count");
  out.Layer("ilp.solve_ms", median_of("ilp.SolveWithConditionals"), "ms");
  ReportIlp(ilp, &out);
  out.Layer("core.witness.build_verify_ms", Mean(deltas), "ms");
  out.Layer("dtd.validate_ms", median_of("dtd.ValidateXml"), "ms");
  out.Layer("constraints.evaluate_ms", median_of("constraints.Evaluate"),
            "ms");
  return out;
}

}  // namespace xbench
