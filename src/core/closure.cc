#include "core/closure.h"

#include <algorithm>

#include "core/decision.h"

namespace xicc {

namespace {

bool SyntacticallyPresent(const ConstraintSet& sigma, const Constraint& c) {
  ConstraintSet normalized = sigma.Normalize();
  const auto& all = normalized.constraints();
  return std::find(all.begin(), all.end(), c) != all.end();
}

}  // namespace

Result<UnaryClosure> ComputeUnaryClosure(const Dtd& dtd,
                                         const ConstraintSet& sigma,
                                         const ClosureOptions& options) {
  XICC_RETURN_IF_ERROR(sigma.CheckAgainst(dtd));
  UnaryClosure out;
  ConsistencyOptions verdict_only = VerdictOnly(options.consistency);
  std::vector<std::pair<std::string, std::string>> pairs =
      dtd.AllAttributePairs();

  for (const auto& [type, attr] : pairs) {
    Constraint candidate = Constraint::Key(type, {attr});
    if (SyntacticallyPresent(sigma, candidate)) continue;
    XICC_ASSIGN_OR_RETURN(
        ImplicationResult result,
        CheckImplication(dtd, sigma, candidate, verdict_only));
    if (result.implied) out.implied_keys.push_back(std::move(candidate));
  }

  if (options.include_inclusions) {
    for (const auto& [type1, attr1] : pairs) {
      for (const auto& [type2, attr2] : pairs) {
        if (type1 == type2 && attr1 == attr2) continue;  // Reflexive.
        Constraint candidate =
            Constraint::Inclusion(type1, {attr1}, type2, {attr2});
        if (SyntacticallyPresent(sigma, candidate)) continue;
        XICC_ASSIGN_OR_RETURN(
            ImplicationResult result,
            CheckImplication(dtd, sigma, candidate, verdict_only));
        if (result.implied) {
          out.implied_inclusions.push_back(std::move(candidate));
        }
      }
    }
  }
  return out;
}

Result<std::vector<Constraint>> FindRedundantConstraints(
    const Dtd& dtd, const ConstraintSet& sigma,
    const ConsistencyOptions& options) {
  XICC_RETURN_IF_ERROR(sigma.CheckAgainst(dtd));
  ConsistencyOptions verdict_only = VerdictOnly(options);
  std::vector<Constraint> redundant;
  const auto& all = sigma.constraints();
  for (size_t i = 0; i < all.size(); ++i) {
    ConstraintSet rest;
    for (size_t j = 0; j < all.size(); ++j) {
      if (j != i) rest.Add(all[j]);
    }
    XICC_ASSIGN_OR_RETURN(
        ImplicationResult result,
        CheckImplication(dtd, rest, all[i], verdict_only));
    if (result.implied) redundant.push_back(all[i]);
  }
  return redundant;
}

}  // namespace xicc
