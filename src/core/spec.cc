#include "core/spec.h"

#include "constraints/constraint_parser.h"
#include "constraints/evaluator.h"
#include "dtd/dtd_parser.h"
#include "dtd/validator.h"

namespace xicc {

Result<XmlSpec> XmlSpec::Parse(std::string_view dtd_text,
                               std::string_view constraints_text) {
  XmlSpec spec;
  XICC_ASSIGN_OR_RETURN(spec.dtd, ParseDtd(dtd_text));
  XICC_ASSIGN_OR_RETURN(spec.constraints,
                        ParseConstraints(constraints_text));
  XICC_RETURN_IF_ERROR(spec.constraints.CheckAgainst(spec.dtd));
  return spec;
}

Result<ConsistencyResult> XmlSpec::CheckConsistent(
    const ConsistencyOptions& options) const {
  return CheckConsistency(dtd, constraints, options);
}

Result<ImplicationResult> XmlSpec::Implies(
    const Constraint& phi, const ConsistencyOptions& options) const {
  return CheckImplication(dtd, constraints, phi, options);
}

Result<ImplicationResult> XmlSpec::Implies(
    std::string_view phi_text, const ConsistencyOptions& options) const {
  XICC_ASSIGN_OR_RETURN(Constraint phi, ParseConstraint(phi_text));
  return CheckImplication(dtd, constraints, phi, options);
}

XmlSpec::DocumentReport XmlSpec::CheckDocument(const XmlTree& tree) const {
  DocumentReport report;
  DtdChecker on_dtd(dtd);
  ConstraintChecker on_sigma(constraints);
  WalkTree(tree, {&on_dtd, &on_sigma});
  ValidationReport validation = on_dtd.Finish();
  EvaluationReport evaluation = on_sigma.Finish();
  report.conforms = validation.valid && evaluation.satisfied;
  if (report.conforms) {
    report.details = "document conforms to the DTD and satisfies Σ";
    return report;
  }
  report.details = "";
  if (!validation.valid) {
    report.details += "DTD violations:\n" + validation.ToString();
  }
  if (!evaluation.satisfied) {
    if (!report.details.empty()) report.details += "\n";
    report.details += "constraint violations:\n" + evaluation.ToString();
  }
  return report;
}

}  // namespace xicc
