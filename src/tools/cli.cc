#include "tools/cli.h"

#include <fstream>
#include <optional>
#include <sstream>

#include "base/deadline.h"
#include "constraints/constraint_parser.h"
#include "constraints/id_idref.h"
#include "core/artifact.h"
#include "core/artifact_cache.h"
#include "core/batch.h"
#include "core/cardinality_encoding.h"
#include "core/closure.h"
#include "core/incremental.h"
#include "core/spec.h"
#include "core/spec_session.h"
#include "core/streaming_validator.h"
#include "dtd/dtd_parser.h"
#include "dtd/simplify.h"
#include "tools/flags.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xicc {
namespace tools {

namespace {

constexpr int kOk = 0;
constexpr int kNegative = 1;
constexpr int kError = 2;

// The prose under the command list; each command's synopsis and flag list
// are rendered from its flag table.
constexpr const char* kNotes = R"(
Run `xicc <command> --help` for a command's flags.

Constraint syntax (one per line):
  key teacher(name)
  fk subject(taught_by) => teacher(name)
  inclusion a(x) <= b(y)
  !key a(x)          !inclusion a(x) <= b(y)

--timeout-ms bounds one check's wall clock (for batch: EACH query's,
measured from when that query starts). A check that outlives its budget
reports "no verdict" with the partial search statistics — it never turns
into a consistency answer. --cancel-after arms a timer that cancels the
whole run after N ms; batch returns promptly, keeping every verdict
that finished and recording the rest as cancelled.

--artifact-cache names a directory of compiled-DTD artifacts keyed by DTD
content hash. A hit mmaps the artifact (integrity-checked: container
checksums, content key, and a recomputed semantic digest) instead of
compiling; a miss or a corrupt file falls back to a cold compile and
(re)writes the artifact. Cache trouble never changes verdicts.

--stats prints the solver counters behind a verdict (system size, ILP
nodes, warm/cold LP solves, compile-vs-query time, sigma-delta and memo
hits). Verdict soundness itself is machine-checked separately: xicc_analyze
gates the source invariants (exact arithmetic, determinism, annotated
concurrency), -DXICC_THREAD_SAFETY=ON makes clang verify the locking, and
a -DXICC_AUDIT=ON build re-checks solver invariants at every checkpoint —
see "Verifying correctness" in README.md.
)";

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::InvalidArgument("cannot write '" + path + "'");
  }
  out << content;
  return Status::Ok();
}

/// The spec named by the first two positionals, <dtd> <constraints>.
Result<XmlSpec> LoadSpec(const std::vector<std::string>& paths) {
  XICC_ASSIGN_OR_RETURN(std::string dtd_text, ReadFile(paths[0]));
  XICC_ASSIGN_OR_RETURN(std::string sigma_text, ReadFile(paths[1]));
  return XmlSpec::Parse(dtd_text, sigma_text);
}

Result<Dtd> LoadDtd(const std::string& path) {
  XICC_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseDtd(text);
}

/// The --timeout-ms / --cancel-after plumbing shared by check and batch:
/// owns the cancel token and its timer so the StopSignal pointers given to
/// the solver stack stay valid for the command's whole run.
struct StopPlumbing {
  explicit StopPlumbing(const FlagValues& flags)
      : timeout_ms(flags.Int("--timeout-ms")),
        cancel_after_ms(flags.Int("--cancel-after")) {
    if (cancel_after_ms > 0) timer.emplace(&token, cancel_after_ms);
  }

  CancelToken token;
  std::optional<CancelTimer> timer;  // Armed iff --cancel-after was given.
  int64_t timeout_ms = 0;
  int64_t cancel_after_ms = 0;
};

ConsistencyOptions OptionsFromFlags(const FlagValues& flags) {
  ConsistencyOptions options;
  if (flags.Has("--big-m")) options.strategy = SolveStrategy::kBigM;
  flags.Assign("--min-nodes", &options.min_witness_nodes);
  return options;
}

/// The arithmetic line and the sparse-LP-kernel line (DESIGN.md §12),
/// shared by the per-check and batch-total stats blocks.
void PrintArithmeticAndKernel(const ConsistencyStats& stats,
                              std::ostream& out) {
  out << "arithmetic: " << stats.num_small_ops << " small ops, "
      << stats.num_big_ops << " big ops, " << stats.num_promotions
      << " promotions / " << stats.num_demotions << " demotions, arena "
      << stats.arena_bytes << " bytes\n";
  const LpKernelStats& k = stats.lp_kernel;
  out << "lp kernel:  " << k.dantzig_pivots << " dantzig / " << k.bland_pivots
      << " bland / " << k.drive_out_pivots << " drive-out pivots, "
      << k.bland_fallbacks << " fallbacks, fill-in "
      << k.fill_in << ", nnz " << k.nnz_cells << "/" << k.total_cells
      << " cells, fast rows " << k.fast_rows << " (" << k.fast_row_promotions
      << " promoted)\n";
}

void PrintStats(const ConsistencyStats& stats, std::ostream& out) {
  out << "stats:      " << stats.system_variables << " vars, "
      << stats.system_constraints << " rows, " << stats.ilp_nodes
      << " ilp nodes, " << stats.lp_pivots << " lp pivots ("
      << stats.warm_starts << " warm / " << stats.cold_restarts
      << " cold), depth " << stats.search_depth << ", ilp "
      << stats.ilp_wall_ms << " ms\n";
  PrintArithmeticAndKernel(stats, out);
  out << "session:    compile " << stats.compile_ms << " ms, "
      << stats.sigma_delta_checks << " sigma-delta, " << stats.memo_hits
      << " memo hits, " << stats.memo_misses << " memo misses\n";
  out << "stages:     setup " << stats.session_setup_ms << " ms, memo key "
      << stats.memo_key_ms << " ms, lookup " << stats.memo_lookup_ms
      << " ms, store " << stats.memo_store_ms << " ms\n";
}

Result<int> CmdCheck(const FlagValues& flags, std::ostream& out,
                     std::ostream& err) {
  XICC_ASSIGN_OR_RETURN(XmlSpec spec, LoadSpec(flags.positional));
  ConsistencyOptions options = OptionsFromFlags(flags);
  StopPlumbing plumbing(flags);
  ConsistencyStats partial;
  if (plumbing.timeout_ms > 0 || plumbing.cancel_after_ms > 0) {
    if (plumbing.timeout_ms > 0) {
      options.stop.deadline = Deadline::After(plumbing.timeout_ms);
    }
    options.stop.cancel = &plumbing.token;
    options.partial_stats = &partial;
  }
  // With --artifact-cache the check routes through a SpecSession over the
  // cached CompiledDtd (verdict-identical to CheckConsistent's dispatch);
  // without it, the classic compile-inline path.
  const std::string cache_dir = flags.Str("--artifact-cache");
  std::optional<SpecSession> session;
  std::optional<ArtifactSource> artifact_source;
  auto result = [&]() -> Result<ConsistencyResult> {
    if (!flags.Has("--artifact-cache")) return spec.CheckConsistent(options);
    ArtifactCache cache(ArtifactCache::Options{cache_dir, 16});
    XICC_ASSIGN_OR_RETURN(ArtifactCache::Lookup lookup,
                          cache.GetOrCompile(spec.dtd));
    artifact_source = lookup.source;
    session.emplace(std::move(lookup.compiled), options);
    return session->Check(spec.constraints);
  }();
  if (session.has_value() && !result.ok()) partial = session->LastPartialStats();
  if (!result.ok()) {
    const StatusCode code = result.status().code();
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled) {
      // A stopped check has decided nothing; report how far it got, never
      // a verdict.
      err << "no verdict: " << result.status().message() << "\n";
      if (flags.Has("--stats")) PrintStats(partial, err);
      return kError;
    }
    return result.status();
  }
  out << "class:      " << ConstraintClassName(result->constraint_class)
      << "\n";
  out << "method:     " << result->method << "\n";
  out << "consistent: " << (result->consistent ? "yes" : "no") << "\n";
  if (!result->explanation.empty()) {
    out << "why:        " << result->explanation << "\n";
  }
  if (flags.Has("--stats")) {
    PrintStats(result->stats, out);
    if (artifact_source.has_value()) {
      out << "artifact:   " << ArtifactSourceName(*artifact_source) << " ("
          << cache_dir << ")\n";
    }
  }
  if (flags.Has("--witness") && result->witness.has_value()) {
    const std::string path = flags.Str("--witness");
    XICC_RETURN_IF_ERROR(WriteFile(path, SerializeXml(*result->witness)));
    out << "witness:    " << path << " (" << result->witness->size()
        << " nodes)\n";
  }
  return result->consistent ? kOk : kNegative;
}

/// Splits the batch query file into blocks on lines that are exactly `---`
/// (ignoring surrounding whitespace). Blank blocks are kept: an empty Σ is a
/// legitimate (trivially consistent) query.
std::vector<std::string> SplitQueryBlocks(const std::string& text) {
  std::vector<std::string> blocks;
  std::string current;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::string trimmed = line;
    size_t begin = trimmed.find_first_not_of(" \t\r");
    size_t end = trimmed.find_last_not_of(" \t\r");
    trimmed = begin == std::string::npos
                  ? std::string()
                  : trimmed.substr(begin, end - begin + 1);
    if (trimmed == "---") {
      blocks.push_back(current);
      current.clear();
    } else {
      current += line;
      current += '\n';
    }
  }
  blocks.push_back(current);
  return blocks;
}

Result<int> CmdBatch(const FlagValues& flags, std::ostream& out,
                     std::ostream& err) {
  XICC_ASSIGN_OR_RETURN(Dtd dtd, LoadDtd(flags.positional[0]));
  XICC_ASSIGN_OR_RETURN(std::string queries_text,
                        ReadFile(flags.positional[1]));
  std::vector<ConstraintSet> queries;
  for (const std::string& block : SplitQueryBlocks(queries_text)) {
    auto sigma = ParseConstraints(block);
    if (!sigma.ok()) {
      err << "query " << queries.size() << ": " << sigma.status() << "\n";
      return kError;
    }
    queries.push_back(std::move(*sigma));
  }

  BatchOptions options;
  options.check = OptionsFromFlags(flags);
  flags.Assign("--threads", &options.num_threads);
  flags.Assign("--chunk", &options.chunk_size);
  StopPlumbing plumbing(flags);
  options.item_timeout_ms = plumbing.timeout_ms;
  if (plumbing.cancel_after_ms > 0) options.cancel = &plumbing.token;

  const std::string cache_dir = flags.Str("--artifact-cache");
  std::optional<ArtifactSource> artifact_source;
  StageTally artifact_tally;
  auto compiled = [&]() -> Result<std::shared_ptr<const CompiledDtd>> {
    if (!flags.Has("--artifact-cache")) return CompileDtd(dtd);
    ArtifactCache cache(ArtifactCache::Options{cache_dir, 16});
    XICC_ASSIGN_OR_RETURN(ArtifactCache::Lookup lookup,
                          cache.GetOrCompile(dtd, &artifact_tally));
    artifact_source = lookup.source;
    return std::move(lookup.compiled);
  }();
  if (!compiled.ok()) return compiled.status();
  BatchDegradedStats degraded;
  BatchRunStats run;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options, &degraded, &run);
  // Charge the pre-batch artifact traffic to the run's stage report, so
  // the stages line sums to the whole command, not just the pool section.
  run.stages.Merge(artifact_tally);

  bool any_error = false;
  bool all_consistent = true;
  ConsistencyStats total;
  for (size_t i = 0; i < results.size(); ++i) {
    const BatchItemResult& item = results[i];
    if (!item.status.ok()) {
      out << "[" << i << "] error: " << item.status.message();
      const StatusCode code = item.status.code();
      if (code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kCancelled ||
          code == StatusCode::kResourceExhausted) {
        // The quarantined item's partial progress, inline: enough to see
        // whether the budget was merely tight or the query truly explodes.
        out << " (partial: " << item.partial.ilp_nodes << " ilp nodes, "
            << item.partial.lp_pivots << " lp pivots, depth "
            << item.partial.search_depth << ")";
      }
      out << "\n";
      any_error = true;
      continue;
    }
    out << "[" << i << "] "
        << ConstraintClassName(item.result.constraint_class) << " via "
        << item.result.method << ": "
        << (item.result.consistent ? "consistent" : "inconsistent");
    if (!item.result.consistent && !item.result.explanation.empty()) {
      out << " (" << item.result.explanation << ")";
    }
    out << "\n";
    all_consistent = all_consistent && item.result.consistent;
    total.Add(item.result.stats);
    total.sigma_delta_checks += item.result.stats.sigma_delta_checks;
    total.memo_hits += item.result.stats.memo_hits;
    total.memo_misses += item.result.stats.memo_misses;
  }
  out << "queries:    " << results.size() << "\n";
  if (flags.Has("--stats")) {
    out << "compile:    " << (*compiled)->compile_ms << " ms (once)\n";
    if (artifact_source.has_value()) {
      out << "artifact:   " << ArtifactSourceName(*artifact_source) << " ("
          << cache_dir << "), load "
          << artifact_tally.MsFor(Stage::kArtifactLoad) << " ms, store "
          << artifact_tally.MsFor(Stage::kArtifactStore) << " ms\n";
    }
    out << "totals:     " << total.sigma_delta_checks << " sigma-delta, "
        << total.memo_hits << " memo hits, " << total.memo_misses
        << " memo misses, " << total.ilp_nodes << " ilp nodes, "
        << total.lp_pivots << " lp pivots (" << total.warm_starts
        << " warm / " << total.cold_restarts << " cold), ilp "
        << total.ilp_wall_ms << " ms\n";
    PrintArithmeticAndKernel(total, out);
    out << "degraded:   " << degraded.quarantined << " quarantined ("
        << degraded.deadline_exceeded << " deadline, " << degraded.cancelled
        << " cancelled, " << degraded.resource_exhausted << " exhausted), "
        << degraded.retries << " retries / " << degraded.retry_rescues
        << " rescued\n";
    out << "schedule:   " << run.workers << " workers (hardware "
        << run.hardware_threads << "), " << run.chunks << " chunks of "
        << run.chunk_size << ", " << run.sessions_created
        << " sessions created / " << run.session_reuses << " reused, memo "
        << run.memo_hits << " hits / " << run.memo_misses << " misses / "
        << run.memo_evictions << " evicted\n";
    out << "stages:    ";
    for (size_t s = 0; s < static_cast<size_t>(Stage::kCount); ++s) {
      const Stage stage = static_cast<Stage>(s);
      out << " " << StageName(stage) << " " << run.stages.MsFor(stage)
          << " ms";
    }
    out << "\n";
  }
  if (any_error) return kError;
  return all_consistent ? kOk : kNegative;
}

Result<int> CmdCompile(const FlagValues& flags, std::ostream& out,
                       std::ostream& err) {
  const bool to_cache = flags.Has("--artifact-cache");
  if (!to_cache && !flags.Has("--out")) {
    return Status::InvalidArgument(
        "compile needs --artifact-cache DIR and/or --out FILE");
  }
  XICC_ASSIGN_OR_RETURN(Dtd dtd, LoadDtd(flags.positional[0]));

  std::shared_ptr<const CompiledDtd> compiled;
  StageTally tally;
  char key_hex[17];
  std::snprintf(key_hex, sizeof(key_hex), "%016llx",
                static_cast<unsigned long long>(DtdContentHash(dtd)));
  out << "content:    " << key_hex << " (format v" << kArtifactFormatVersion
      << ")\n";
  if (to_cache) {
    const std::string cache_dir = flags.Str("--artifact-cache");
    ArtifactCache cache(ArtifactCache::Options{cache_dir, 1});
    XICC_ASSIGN_OR_RETURN(ArtifactCache::Lookup lookup,
                          cache.GetOrCompile(dtd, &tally));
    compiled = std::move(lookup.compiled);
    out << "artifact:   " << cache.DiskPathFor(dtd) << " ("
        << ArtifactSourceName(lookup.source) << ")\n";
    if (cache.stats().store_failures > 0) {
      err << "warning: artifact could not be stored in '" << cache_dir
          << "'\n";
    }
  } else {
    XICC_ASSIGN_OR_RETURN(compiled, CompileDtd(dtd));
  }
  if (flags.Has("--out")) {
    const std::string path = flags.Str("--out");
    StageTimer timer(&tally, Stage::kArtifactStore);
    XICC_RETURN_IF_ERROR(StoreCompiledDtd(*compiled, path));
    out << "artifact:   " << path << "\n";
  }
  out << "compile:    " << compiled->compile_ms << " ms, load "
      << tally.MsFor(Stage::kArtifactLoad) << " ms, store "
      << tally.MsFor(Stage::kArtifactStore) << " ms\n";
  return kOk;
}

Result<int> CmdImplies(const FlagValues& flags, std::ostream& out,
                       std::ostream& /*err*/) {
  XICC_ASSIGN_OR_RETURN(XmlSpec spec, LoadSpec(flags.positional));
  XICC_ASSIGN_OR_RETURN(ImplicationResult result,
                        spec.Implies(flags.positional[2]));
  out << "method:  " << result.method << "\n";
  out << "implied: " << (result.implied ? "yes" : "no") << "\n";
  if (!result.explanation.empty()) {
    out << "why:     " << result.explanation << "\n";
  }
  if (flags.Has("--counterexample") && result.counterexample.has_value()) {
    const std::string path = flags.Str("--counterexample");
    XICC_RETURN_IF_ERROR(WriteFile(path, SerializeXml(*result.counterexample)));
    out << "counterexample: " << path << "\n";
  }
  return result.implied ? kOk : kNegative;
}

Result<int> CmdValidate(const FlagValues& flags, std::ostream& out,
                        std::ostream& /*err*/) {
  XICC_ASSIGN_OR_RETURN(XmlSpec spec, LoadSpec(flags.positional));
  XICC_ASSIGN_OR_RETURN(std::string text, ReadFile(flags.positional[2]));
  if (flags.Has("--stream")) {
    XICC_ASSIGN_OR_RETURN(
        StreamingValidator::Summary summary,
        ValidateStream(text, spec.dtd, spec.constraints));
    out << summary.ToString() << "\n";
    out << "(streamed " << summary.elements_seen << " elements)\n";
    return summary.conforms ? kOk : kNegative;
  }
  XICC_ASSIGN_OR_RETURN(XmlTree tree, ParseXml(text));
  auto report = spec.CheckDocument(tree);
  out << report.details << "\n";
  return report.conforms ? kOk : kNegative;
}

Result<int> CmdWitness(const FlagValues& flags, std::ostream& out,
                       std::ostream& err) {
  XICC_ASSIGN_OR_RETURN(XmlSpec spec, LoadSpec(flags.positional));
  XICC_ASSIGN_OR_RETURN(ConsistencyResult result,
                        spec.CheckConsistent(OptionsFromFlags(flags)));
  if (!result.consistent) {
    err << "inconsistent: " << result.explanation << "\n";
    return kNegative;
  }
  if (!result.witness.has_value()) {
    err << "consistent, but the witness could not be materialized: "
        << result.explanation << "\n";
    return kError;
  }
  out << SerializeXml(*result.witness);
  return kOk;
}

Result<int> CmdClassify(const FlagValues& flags, std::ostream& out,
                        std::ostream& /*err*/) {
  XICC_ASSIGN_OR_RETURN(XmlSpec spec, LoadSpec(flags.positional));
  ConstraintClass klass = spec.constraints.Classify();
  out << "class:   " << ConstraintClassName(klass) << "\n";
  out << "primary: "
      << (spec.constraints.SatisfiesPrimaryKeyRestriction() ? "yes" : "no")
      << "\n";
  switch (klass) {
    case ConstraintClass::kEmpty:
    case ConstraintClass::kKeysOnly:
      out << "consistency: decidable in linear time (Theorem 3.5)\n";
      break;
    case ConstraintClass::kUnaryKeyFk:
    case ConstraintClass::kUnaryWithNegKey:
      out << "consistency: NP-complete (Theorem 4.7 / Corollary 4.9)\n";
      break;
    case ConstraintClass::kUnaryWithNegIc:
      out << "consistency: NP-complete (Theorem 5.1)\n";
      break;
    case ConstraintClass::kMultiAttribute:
      out << "consistency: undecidable (Theorem 3.1); dynamic document\n"
             "validation remains available\n";
      break;
  }
  return kOk;
}

Result<int> CmdSimplify(const FlagValues& flags, std::ostream& out,
                        std::ostream& /*err*/) {
  XICC_ASSIGN_OR_RETURN(Dtd dtd, LoadDtd(flags.positional[0]));
  XICC_ASSIGN_OR_RETURN(SimplifiedDtd simplified, SimplifyDtd(dtd));
  out << simplified.dtd.ToString();
  out << "<!-- synthetic element types: " << simplified.synthetic.size()
      << " -->\n";
  return kOk;
}

Result<int> CmdEncode(const FlagValues& flags, std::ostream& out,
                      std::ostream& /*err*/) {
  XICC_ASSIGN_OR_RETURN(XmlSpec spec, LoadSpec(flags.positional));
  XICC_ASSIGN_OR_RETURN(
      CardinalityEncoding enc,
      BuildCardinalityEncoding(spec.dtd, spec.constraints.Normalize()));
  out << "# Ψ(D,Σ): " << enc.system.NumVariables() << " variables, "
      << enc.system.NumConstraints() << " rows, " << enc.conditionals.size()
      << " conditionals\n";
  out << enc.system.ToString() << "\n";
  for (const Conditional& cond : enc.conditionals) {
    // Conditionals have single-variable sides in Ψ(D,Σ).
    out << "# conditional: premise>0 -> conclusion>0 over vars";
    for (const auto& [var, coeff] : cond.premise.terms()) {
      out << " " << enc.system.VarName(var);
    }
    out << " ->";
    for (const auto& [var, coeff] : cond.conclusion.terms()) {
      out << " " << enc.system.VarName(var);
    }
    out << "\n";
  }
  return kOk;
}

Result<int> CmdClosure(const FlagValues& flags, std::ostream& out,
                       std::ostream& /*err*/) {
  XICC_ASSIGN_OR_RETURN(XmlSpec spec, LoadSpec(flags.positional));
  ClosureOptions options;
  options.include_inclusions = !flags.Has("--no-inclusions");
  XICC_ASSIGN_OR_RETURN(
      UnaryClosure closure,
      ComputeUnaryClosure(spec.dtd, spec.constraints, options));
  out << "implied keys (" << closure.implied_keys.size() << "):\n";
  for (const Constraint& c : closure.implied_keys) {
    out << "  " << c.ToString() << "\n";
  }
  out << "implied inclusions (" << closure.implied_inclusions.size()
      << "):\n";
  for (const Constraint& c : closure.implied_inclusions) {
    out << "  " << c.ToString() << "\n";
  }
  XICC_ASSIGN_OR_RETURN(std::vector<Constraint> redundant,
                        FindRedundantConstraints(spec.dtd, spec.constraints));
  out << "redundant constraints (" << redundant.size() << "):\n";
  for (const Constraint& c : redundant) {
    out << "  " << c.ToString() << "\n";
  }
  return kOk;
}

Result<int> CmdEquiv(const FlagValues& flags, std::ostream& out,
                     std::ostream& /*err*/) {
  XICC_ASSIGN_OR_RETURN(XmlSpec spec1, LoadSpec(flags.positional));
  XICC_ASSIGN_OR_RETURN(std::string sigma2_text, ReadFile(flags.positional[2]));
  XICC_ASSIGN_OR_RETURN(ConstraintSet sigma2, ParseConstraints(sigma2_text));
  XICC_RETURN_IF_ERROR(sigma2.CheckAgainst(spec1.dtd));
  XICC_ASSIGN_OR_RETURN(
      EquivalenceResult result,
      CheckEquivalence(spec1.dtd, spec1.constraints, sigma2));
  out << "equivalent: " << (result.equivalent ? "yes" : "no") << "\n";
  if (!result.equivalent) {
    out << "separated by: " << result.separating_constraint << "\n";
  }
  return result.equivalent ? kOk : kNegative;
}

Result<int> CmdIdrefs(const FlagValues& flags, std::ostream& out,
                      std::ostream& /*err*/) {
  XICC_ASSIGN_OR_RETURN(Dtd dtd, LoadDtd(flags.positional[0]));
  XICC_ASSIGN_OR_RETURN(IdConstraintTranslation translation,
                        DeriveIdConstraints(dtd));
  out << translation.constraints.ToString() << "\n";
  for (const std::string& note : translation.notes) {
    out << "# note: " << note << "\n";
  }
  return kOk;
}

/// One `xicc` command: its flag table and the code that runs it on
/// already-validated values.
struct CliCommand {
  Command command;
  Result<int> (*run)(const FlagValues&, std::ostream&, std::ostream&);
};

const std::vector<CliCommand>& Commands() {
  static const std::vector<CliCommand> kCommands = [] {
    // Flags several commands share, declared once.
    const Flag big_m = SwitchFlag(
        "--big-m", "big-M linearization instead of the case split (ablation)");
    const Flag stats =
        SwitchFlag("--stats", "print the solver counters behind the verdict");
    const Flag min_nodes = IntFlag(
        "--min-nodes", 0, "witness has >= N element nodes (0: any size)");
    const Flag timeout_ms = IntFlag(
        "--timeout-ms", 1, "budget of one check (batch: each query), ms");
    const Flag cancel_after =
        IntFlag("--cancel-after", 1, "cancel the whole run after N ms");
    const Flag artifact_cache = StringFlag(
        "--artifact-cache", "DIR", "compiled-DTD artifact directory");
    return std::vector<CliCommand>{
      {{"xicc check",
        {"<dtd>", "<constraints>"},
        {StringFlag("--witness", "FILE", "write the witness document to FILE"),
         min_nodes, big_m, stats, timeout_ms, cancel_after, artifact_cache},
        "Is the specification consistent? (exit 0 yes / 1 no)"},
       CmdCheck},
      {{"xicc batch",
        {"<dtd>", "<queries>"},
        {IntFlag("--threads", 1, "worker threads (default: 1)"),
         IntFlag("--chunk", 1, "queries per scheduled chunk (default: auto)"),
         big_m, stats, timeout_ms, cancel_after, artifact_cache},
        "Answer many consistency queries against one compiled DTD.\n"
        "<queries> holds constraint blocks separated by lines of `---`;\n"
        "the DTD is compiled once and shared by all worker sessions."},
       CmdBatch},
      {{"xicc compile",
        {"<dtd>"},
        {artifact_cache,
         StringFlag("--out", "FILE", "write the artifact to FILE")},
        "Compile the DTD into a persistent artifact (grammar facts,\n"
        "frozen DFAs, minimal-tree plan, LP skeleton + warm-start basis)\n"
        "and store it in the cache directory and/or an explicit file.\n"
        "Later check/batch runs with --artifact-cache DIR warm-start\n"
        "from the artifact instead of recompiling."},
       CmdCompile},
      {{"xicc implies",
        {"<dtd>", "<constraints>", "<phi>"},
        {StringFlag("--counterexample", "FILE",
                    "write the counterexample document to FILE")},
        "Does the specification imply the constraint <phi>?"},
       CmdImplies},
      {{"xicc validate",
        {"<dtd>", "<constraints>", "<document.xml>"},
        {SwitchFlag("--stream", "single pass, no tree materialized")},
        "Check a concrete document against DTD and constraints\n"
        "(--stream: single pass, no tree materialized)."},
       CmdValidate},
      {{"xicc witness",
        {"<dtd>", "<constraints>"},
        {min_nodes},
        "Print an example document satisfying the specification."},
       CmdWitness},
      {{"xicc classify",
        {"<dtd>", "<constraints>"},
        {},
        "Report the Figure-5 constraint class and decidability."},
       CmdClassify},
      {{"xicc simplify", {"<dtd>"}, {},
        "Print the Section 4.1 simplified DTD."},
       CmdSimplify},
      {{"xicc encode",
        {"<dtd>", "<constraints>"},
        {},
        "Print the Ψ(D,Σ) cardinality system (Theorem 4.1)."},
       CmdEncode},
      {{"xicc closure",
        {"<dtd>", "<constraints>"},
        {SwitchFlag("--no-inclusions", "skip the implied-inclusion search")},
        "List implied-but-unstated unary keys/inclusions and redundant\n"
        "constraints."},
       CmdClosure},
      {{"xicc equiv",
        {"<dtd>", "<constraints1>", "<constraints2>"},
        {},
        "Are two constraint sets equivalent over the DTD? (exit 0/1)"},
       CmdEquiv},
      {{"xicc idrefs", {"<dtd>"}, {},
        "Translate ID/IDREF attribute declarations into constraints."},
       CmdIdrefs},
    };
  }();
  return kCommands;
}

/// The `xicc help` text: every command's synopsis and summary, then the
/// hand-written notes.
std::string Overview() {
  std::string text = "usage: xicc <command> ...\n\n";
  const std::string indent(11, ' ');
  for (const CliCommand& cli : Commands()) {
    std::string head = "  " + cli.command.name.substr(5);  // Drop "xicc ".
    head.resize(10, ' ');
    text += RenderSynopsis(cli.command, head, indent.size());
    std::istringstream summary(cli.command.summary);
    for (std::string line; std::getline(summary, line);) {
      text += indent + line + "\n";
    }
  }
  return text + kNotes;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty()) {
    err << Overview();
    return kError;
  }
  const std::string& name = args[0];
  if (name == "help" || name == "--help" || name == "-h") {
    out << Overview();
    return kOk;
  }
  for (const CliCommand& cli : Commands()) {
    if (cli.command.name != "xicc " + name) continue;
    Result<FlagValues> flags =
        ParseFlags(cli.command, {args.begin() + 1, args.end()});
    if (flags.ok() && flags->help) {
      out << RenderUsage(cli.command);
      return kOk;
    }
    Result<int> code = flags.ok() ? cli.run(*flags, out, err)
                                  : Result<int>(flags.status());
    if (!code.ok()) {
      err << code.status() << "\n";
      return kError;
    }
    return *code;
  }
  err << "unknown command '" << name << "'\n" << Overview();
  return kError;
}

}  // namespace tools
}  // namespace xicc
