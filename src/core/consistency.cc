#include "core/consistency.h"

#include <utility>

#include "core/decision.h"
#include "dtd/analysis.h"

namespace xicc {

namespace {

/// Solves `enc`; an exit without a verdict (stop fired, budget tripped)
/// first reports the work done so far through options.partial_stats.
Result<IlpSolution> SolveReportingPartial(const CardinalityEncoding& enc,
                                          const ConsistencyOptions& options,
                                          ConsistencyStats* stats) {
  IlpSolution partial;
  EncodingSolveOptions solve_options = ToSolveOptions(options);
  solve_options.ilp.partial = &partial;
  Result<IlpSolution> solved =
      SolveEncodingSystem(enc, enc.system, solve_options);
  if (!solved.ok() && options.partial_stats != nullptr) {
    stats->Add(partial);
    *options.partial_stats = *stats;
  }
  return solved;
}

}  // namespace

Result<ConsistencyResult> CheckConsistency(const Dtd& dtd,
                                           const ConstraintSet& sigma,
                                           const ConsistencyOptions& options) {
  // An already-expired deadline (or pre-fired cancel) exits before any
  // compilation work; the partial report is honestly all-zero.
  if (options.stop.Armed() && options.stop.ShouldStop()) {
    if (options.partial_stats != nullptr) {
      *options.partial_stats = ConsistencyStats{};
    }
    return options.stop.ToStatus();
  }
  XICC_RETURN_IF_ERROR(sigma.CheckAgainst(dtd));
  ConstraintSet normalized = sigma.Normalize();

  ConsistencyResult result;
  result.constraint_class = sigma.Classify();

  switch (result.constraint_class) {
    case ConstraintClass::kEmpty:
    case ConstraintClass::kKeysOnly: {
      // Theorem 3.5(1,2): consistent iff the DTD has a valid tree; keys are
      // always satisfiable by distinct re-valuation.
      result.method = result.constraint_class == ConstraintClass::kEmpty
                          ? "grammar-emptiness"
                          : "keys-only";
      result.consistent = DtdHasValidTree(dtd);
      if (!result.consistent) {
        result.explanation = kNoValidTreeExplanation;
        return result;
      }
      if (options.min_witness_nodes > 0) {
        // Route sizing through the cardinality system over Σ = ∅; the
        // resulting witness gets globally distinct attribute values, which
        // satisfy every key (Theorem 3.5(2)'s construction).
        XICC_ASSIGN_OR_RETURN(CardinalityEncoding enc,
                              BuildCardinalityEncoding(dtd, ConstraintSet()));
        AddMinimumSizeRow(options, enc, &enc.system);
        XICC_ASSIGN_OR_RETURN(
            IlpSolution solved,
            SolveReportingPartial(enc, options, &result.stats));
        result.consistent = solved.feasible;
        if (!result.consistent) {
          result.explanation = kMinimumSizeExplanation;
          return result;
        }
        if (options.build_witness) {
          XICC_RETURN_IF_ERROR(AttachWitness(
              dtd, /*models=*/nullptr, normalized, options,
              BuildWitnessTree(enc, solved, /*value_sets=*/{},
                               options.witness),
              &result));
        }
        return result;
      }
      if (options.build_witness) {
        XICC_RETURN_IF_ERROR(AttachWitness(dtd, /*models=*/nullptr,
                                           normalized, options,
                                           BuildMinimalTree(dtd), &result));
      }
      return result;
    }

    case ConstraintClass::kUnaryKeyFk:
    case ConstraintClass::kUnaryWithNegKey: {
      XICC_ASSIGN_OR_RETURN(CardinalityEncoding enc,
                            BuildCardinalityEncoding(dtd, normalized));
      AddMinimumSizeRow(options, enc, &enc.system);
      result.stats.system_variables = enc.system.NumVariables();
      result.stats.system_constraints =
          enc.system.NumConstraints() + enc.conditionals.size();

      XICC_ASSIGN_OR_RETURN(
          IlpSolution solved,
          SolveReportingPartial(enc, options, &result.stats));
      result.method = options.strategy == SolveStrategy::kCaseSplit
                          ? "ilp-case-split"
                          : "ilp-big-m";
      result.stats.Add(solved);
      result.consistent = solved.feasible;
      if (!result.consistent) {
        result.explanation = kCardinalityExplanation;
        return result;
      }
      if (options.build_witness) {
        auto value_sets = PrefixValueSets(enc, solved);
        XICC_RETURN_IF_ERROR(AttachWitness(
            dtd, /*models=*/nullptr, normalized, options,
            BuildWitnessTree(enc, solved, value_sets, options.witness),
            &result));
      }
      return result;
    }

    case ConstraintClass::kUnaryWithNegIc: {
      XICC_ASSIGN_OR_RETURN(
          SetRepresentationEncoding enc,
          BuildSetRepresentation(dtd, normalized,
                                 options.set_representation));
      AddMinimumSizeRow(options, enc.base, &enc.base.system);
      result.stats.system_variables = enc.base.system.NumVariables();
      result.stats.system_constraints =
          enc.base.system.NumConstraints() + enc.base.conditionals.size();

      XICC_ASSIGN_OR_RETURN(
          IlpSolution solved,
          SolveReportingPartial(enc.base, options, &result.stats));
      result.method = "set-representation";
      result.stats.Add(solved);
      result.consistent = solved.feasible;
      if (!result.consistent) {
        result.explanation =
            "the Section 5 region system Ψ'(D,Σ) has no solution: no "
            "family of value sets realizes the inclusions and their "
            "negations under the DTD's cardinalities (Lemma 5.2)";
        return result;
      }
      if (options.build_witness) {
        auto value_sets = RealizeValueSets(enc, solved);
        if (!value_sets.ok()) return value_sets.status();
        XICC_RETURN_IF_ERROR(AttachWitness(
            dtd, /*models=*/nullptr, normalized, options,
            BuildWitnessTree(enc.base, solved, *value_sets, options.witness),
            &result));
      }
      return result;
    }

    case ConstraintClass::kMultiAttribute:
      return Status::UndecidableClass(
          "Σ contains multi-attribute foreign keys or inclusion "
          "constraints; consistency for C_{K,FK} is undecidable "
          "(Theorem 3.1) — no decision procedure exists. Restrict to unary "
          "constraints, or validate concrete documents with the dynamic "
          "evaluator instead.");
  }
  return Status::Internal("unhandled constraint class");
}

}  // namespace xicc
