#include "core/decision.h"

#include <set>
#include <utility>

#include "constraints/evaluator.h"
#include "core/witness.h"
#include "dtd/validator.h"

namespace xicc {

EncodingSolveOptions ToSolveOptions(const ConsistencyOptions& options) {
  EncodingSolveOptions out;
  out.strategy = options.strategy == SolveStrategy::kCaseSplit
                     ? EncodingStrategy::kCaseSplit
                     : EncodingStrategy::kBigM;
  out.ilp = options.ilp;
  if (options.stop.Armed()) out.ilp.stop = options.stop;
  return out;
}

void AddMinimumSizeRow(const ConsistencyOptions& options,
                       const CardinalityEncoding& encoding,
                       LinearSystem* system) {
  if (options.min_witness_nodes == 0) return;
  LinearExpr total;
  for (const auto& [symbol, var] : encoding.ext_var) {
    // Count the document's element nodes: no text nodes, no synthetic
    // intermediates (those are erased by the Lemma 4.3 collapse).
    if (symbol == "S" || encoding.simplified.IsSynthetic(symbol)) continue;
    total.Add(var, BigInt(1));
  }
  system->AddConstraint(
      total, RelOp::kGe,
      BigInt(static_cast<int64_t>(options.min_witness_nodes)));
}

ConsistencyOptions VerdictOnly(const ConsistencyOptions& base) {
  ConsistencyOptions out = base;
  out.build_witness = false;
  out.verify_witness = false;
  return out;
}

Status VerifyWitness(const XmlTree& tree, const Dtd& dtd,
                     const CompiledContentModels* models,
                     const ConstraintSet& sigma) {
  DtdChecker on_dtd(dtd, models);
  ConstraintChecker on_sigma(sigma);
  WalkTree(tree, {&on_dtd, &on_sigma});
  ValidationReport validation = on_dtd.Finish();
  if (!validation.valid) {
    return Status::Internal("witness fails DTD validation:\n" +
                            validation.ToString());
  }
  EvaluationReport evaluation = on_sigma.Finish();
  if (!evaluation.satisfied) {
    return Status::Internal("witness fails constraint evaluation:\n" +
                            evaluation.ToString());
  }
  return Status::Ok();
}

Status AttachWitness(const Dtd& dtd, const CompiledContentModels* models,
                     const ConstraintSet& sigma,
                     const ConsistencyOptions& options, Result<XmlTree> tree,
                     ConsistencyResult* result) {
  if (!tree.ok()) {
    if (tree.status().code() == StatusCode::kResourceExhausted) {
      result->explanation = tree.status().message();
      return Status::Ok();
    }
    return tree.status();
  }
  if (options.verify_witness) {
    XICC_RETURN_IF_ERROR(VerifyWitness(*tree, dtd, models, sigma));
  }
  result->witness = std::move(tree).value();
  return Status::Ok();
}

bool Subsumes(const ConstraintSet& sigma, const Constraint& phi) {
  std::set<std::string> x(phi.attrs1.begin(), phi.attrs1.end());
  ConstraintSet normalized = sigma.Normalize();
  for (const Constraint& c : normalized.constraints()) {
    if (c.kind != ConstraintKind::kKey || c.type1 != phi.type1) continue;
    bool subset = true;
    for (const std::string& attr : c.attrs1) {
      if (x.count(attr) == 0) {
        subset = false;
        break;
      }
    }
    if (subset) return true;
  }
  return false;
}

Result<Constraint> Negate(const Constraint& phi) {
  switch (phi.kind) {
    case ConstraintKind::kKey:
      if (!phi.IsUnary()) {
        return Status::UndecidableClass(
            "implication of the multi-attribute key '" + phi.ToString() +
            "' by non-key constraints is undecidable (Corollary 3.4)");
      }
      return Constraint::NegKey(phi.type1, phi.attrs1);
    case ConstraintKind::kInclusion:
      if (!phi.IsUnary()) {
        return Status::UndecidableClass(
            "implication of the multi-attribute inclusion '" +
            phi.ToString() + "' is undecidable (Corollary 3.4)");
      }
      return Constraint::NegInclusion(phi.type1, phi.attrs1, phi.type2,
                                      phi.attrs2);
    default:
      return Status::InvalidArgument(
          "only keys and inclusion constraints can be negated directly");
  }
}

Status VerifyCounterexample(const XmlTree& tree, const Dtd& dtd,
                            const CompiledContentModels* models,
                            const ConstraintSet& sigma,
                            const Constraint& phi) {
  DtdChecker on_dtd(dtd, models);
  ConstraintChecker on_sigma(sigma);
  ConstraintChecker on_phi(phi);
  WalkTree(tree, {&on_dtd, &on_sigma, &on_phi});
  ValidationReport validation = on_dtd.Finish();
  if (!validation.valid) {
    return Status::Internal("counterexample fails DTD validation:\n" +
                            validation.ToString());
  }
  EvaluationReport sigma_report = on_sigma.Finish();
  if (!sigma_report.satisfied) {
    return Status::Internal("counterexample violates Σ:\n" +
                            sigma_report.ToString());
  }
  if (on_phi.Finish().satisfied) {
    return Status::Internal("counterexample satisfies φ = " + phi.ToString());
  }
  return Status::Ok();
}

Result<XmlTree> BuildKeyCounterexample(const Dtd& dtd, const Constraint& phi,
                                       const ConsistencyOptions& options) {
  XICC_ASSIGN_OR_RETURN(CardinalityEncoding enc,
                        BuildCardinalityEncoding(dtd, ConstraintSet()));
  enc.system.AddConstraint(LinearExpr::Var(enc.ext_var.at(phi.type1)),
                           RelOp::kGe, BigInt(2));
  EncodingSolveOptions solve_options;
  solve_options.ilp = options.ilp;
  XICC_ASSIGN_OR_RETURN(
      IlpSolution solution,
      SolveEncodingSystem(enc, enc.system, solve_options));
  if (!solution.feasible) {
    return Status::Internal(
        "Lemma 3.6 said two elements are possible but Ψ_D disagrees");
  }
  XICC_ASSIGN_OR_RETURN(
      XmlTree tree,
      BuildWitnessTree(enc, solution, /*value_sets=*/{}, options.witness));
  std::vector<NodeId> nodes = tree.ExtOfType(phi.type1);
  if (nodes.size() < 2) {
    return Status::Internal("counterexample tree lacks two '" + phi.type1 +
                            "' elements");
  }
  for (const std::string& attr : phi.attrs1) {
    auto value = tree.AttributeValue(nodes[0], attr);
    if (!value.has_value()) {
      return Status::Internal("counterexample element missing attribute '" +
                              attr + "'");
    }
    tree.SetAttribute(nodes[1], attr, std::string(*value));
  }
  return tree;
}

Result<ImplicationResult> DecideImplication(
    const Dtd& dtd, const CompiledContentModels* models,
    const ConstraintSet& sigma, const Constraint& phi,
    const ConsistencyOptions& options, const CanHaveTwoFn& can_have_two,
    const RefuteFn& refute) {
  {
    ConstraintSet just_phi;
    just_phi.Add(phi);
    XICC_RETURN_IF_ERROR(just_phi.CheckAgainst(dtd));
  }

  // A foreign key is the conjunction of its inclusion and key components
  // ((D,Σ) ⊢ ℓ1 ∧ ℓ2, Section 2.2): implied iff both are.
  if (phi.kind == ConstraintKind::kForeignKey) {
    auto decide = [&](const Constraint& component) {
      return DecideImplication(dtd, models, sigma, component, options,
                               can_have_two, refute);
    };
    XICC_ASSIGN_OR_RETURN(
        ImplicationResult on_inclusion,
        decide(Constraint::Inclusion(phi.type1, phi.attrs1, phi.type2,
                                     phi.attrs2)));
    if (!on_inclusion.implied) {
      on_inclusion.explanation =
          "the inclusion component is not implied; " +
          on_inclusion.explanation;
      return on_inclusion;
    }
    XICC_ASSIGN_OR_RETURN(ImplicationResult on_key,
                          decide(Constraint::Key(phi.type2, phi.attrs2)));
    if (!on_key.implied) {
      on_key.explanation =
          "the key component is not implied; " + on_key.explanation;
    }
    return on_key;
  }

  ConstraintClass sigma_class = sigma.Classify();

  // Theorem 3.5(3) / Lemma 3.7: keys implied by keys, in linear time, for
  // any arity.
  if (phi.kind == ConstraintKind::kKey &&
      (sigma_class == ConstraintClass::kEmpty ||
       sigma_class == ConstraintClass::kKeysOnly)) {
    ImplicationResult result;
    result.method = "keys-only";
    if (Subsumes(sigma, phi)) {
      result.implied = true;
      result.explanation = "Σ contains a key that φ is a superkey of";
      return result;
    }
    if (!can_have_two(phi.type1)) {
      result.implied = true;
      result.explanation =
          "no tree valid w.r.t. the DTD contains two '" + phi.type1 +
          "' elements, so every key over it holds vacuously (Lemma 3.6)";
      return result;
    }
    result.implied = false;
    result.explanation =
        "Σ does not subsume φ and some valid tree has two '" + phi.type1 +
        "' elements sharing the key attributes (Lemma 3.7)";
    if (options.build_witness) {
      XICC_ASSIGN_OR_RETURN(XmlTree tree,
                            BuildKeyCounterexample(dtd, phi, options));
      if (options.verify_witness) {
        XICC_RETURN_IF_ERROR(
            VerifyCounterexample(tree, dtd, models, sigma, phi));
      }
      result.counterexample = std::move(tree);
    }
    return result;
  }

  // General path: (D,Σ) ⊢ φ iff Σ ∪ {¬φ} is inconsistent over D.
  XICC_ASSIGN_OR_RETURN(Constraint negated, Negate(phi));
  XICC_ASSIGN_OR_RETURN(ConsistencyResult consistency, refute(negated));
  ImplicationResult result;
  result.method = "refutation";
  result.stats = consistency.stats;
  result.implied = !consistency.consistent;
  if (result.implied) {
    result.explanation =
        "Σ ∪ {¬φ} is inconsistent over D: " + consistency.explanation;
  } else {
    result.explanation =
        "Σ ∪ {¬φ} is consistent over D; the witness violates φ";
    if (consistency.witness.has_value()) {
      if (options.verify_witness) {
        XICC_RETURN_IF_ERROR(VerifyCounterexample(*consistency.witness, dtd,
                                                  models, sigma, phi));
      }
      result.counterexample = std::move(consistency.witness);
    }
  }
  return result;
}

}  // namespace xicc
