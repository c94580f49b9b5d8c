#include "core/incremental.h"

#include <algorithm>

#include "core/decision.h"

namespace xicc {

Status IncrementalChecker::EnsureSession() {
  if (session_ != nullptr) return Status::Ok();
  XICC_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledDtd> compiled,
                        CompileDtd(*dtd_));
  session_ = std::make_unique<SpecSession>(std::move(compiled), options_);
  return Status::Ok();
}

Result<IncrementalChecker::AddResult> IncrementalChecker::TryAdd(
    const Constraint& constraint) {
  {
    ConstraintSet single;
    single.Add(constraint);
    XICC_RETURN_IF_ERROR(single.CheckAgainst(*dtd_));
  }
  XICC_RETURN_IF_ERROR(EnsureSession());

  // Syntactic duplicates are redundant without any solving.
  {
    ConstraintSet normalized = accepted_.Normalize();
    const auto& all = normalized.constraints();
    ConstraintSet candidate_set;
    candidate_set.Add(constraint);
    ConstraintSet candidate_parts = candidate_set.Normalize();
    bool duplicate = true;
    for (const Constraint& part : candidate_parts.constraints()) {
      if (std::find(all.begin(), all.end(), part) == all.end()) {
        duplicate = false;
        break;
      }
    }
    if (duplicate) {
      accepted_.Add(constraint);
      return AddResult{Outcome::kAcceptedRedundant,
                       "already stated by the accepted constraints", {}};
    }
  }

  // Semantically implied? Then adding it cannot change anything. The
  // session answers this against its committed set (= accepted_).
  ConstraintSet delta;
  delta.Add(constraint);
  if (check_redundancy_) {
    XICC_ASSIGN_OR_RETURN(ImplicationResult implication,
                          session_->Implies(constraint));
    if (implication.implied) {
      accepted_.Add(constraint);
      // Keep the session's committed set aligned with accepted_ (a
      // normalization-level duplicate, so every canonical key is unchanged).
      XICC_RETURN_IF_ERROR(session_->Commit(delta));
      return AddResult{Outcome::kAcceptedRedundant,
                       "already implied by the accepted constraints", {}};
    }
  }

  // Σ-delta: accepted_ is committed in the session, so only the new
  // constraint's C_Σ rows ride the trail.
  XICC_ASSIGN_OR_RETURN(ConsistencyResult consistency, session_->Check(delta));
  if (!consistency.consistent) {
    return AddResult{
        Outcome::kRejected,
        "adding '" + constraint.ToString() +
            "' makes the specification inconsistent: " +
            consistency.explanation,
        {}};
  }
  accepted_.Add(constraint);
  XICC_RETURN_IF_ERROR(session_->Commit(delta));
  return AddResult{Outcome::kAccepted, "", std::move(consistency.witness)};
}

Result<EquivalenceResult> CheckEquivalence(const Dtd& dtd,
                                           const ConstraintSet& sigma1,
                                           const ConstraintSet& sigma2,
                                           const ConsistencyOptions& options) {
  ConsistencyOptions verdict_only = VerdictOnly(options);

  EquivalenceResult out;
  ConstraintSet normalized2 = sigma2.Normalize();
  for (const Constraint& c : normalized2.constraints()) {
    XICC_ASSIGN_OR_RETURN(ImplicationResult implied,
                          CheckImplication(dtd, sigma1, c, verdict_only));
    if (!implied.implied) {
      out.equivalent = false;
      out.separating_constraint =
          "Σ1 does not imply " + c.ToString();
      return out;
    }
  }
  ConstraintSet normalized1 = sigma1.Normalize();
  for (const Constraint& c : normalized1.constraints()) {
    XICC_ASSIGN_OR_RETURN(ImplicationResult implied,
                          CheckImplication(dtd, sigma2, c, verdict_only));
    if (!implied.implied) {
      out.equivalent = false;
      out.separating_constraint =
          "Σ2 does not imply " + c.ToString();
      return out;
    }
  }
  out.equivalent = true;
  return out;
}

}  // namespace xicc
