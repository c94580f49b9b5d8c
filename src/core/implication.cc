#include "core/implication.h"

#include "core/decision.h"
#include "dtd/analysis.h"

namespace xicc {

Result<ImplicationResult> CheckImplication(const Dtd& dtd,
                                           const ConstraintSet& sigma,
                                           const Constraint& phi,
                                           const ConsistencyOptions& options) {
  XICC_RETURN_IF_ERROR(sigma.CheckAgainst(dtd));
  return DecideImplication(
      dtd, /*models=*/nullptr, sigma, phi, options,
      [&dtd](const std::string& type) { return CanHaveTwo(dtd, type); },
      [&](const Constraint& negated) {
        ConstraintSet refutation = sigma;
        refutation.Add(negated);
        return CheckConsistency(dtd, refutation, options);
      });
}

}  // namespace xicc
