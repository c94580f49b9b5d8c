#include "core/streaming_validator.h"

#include "base/strings.h"

namespace xicc {

std::string StreamingValidator::Summary::ToString() const {
  if (conforms) return "conforms";
  return Join(problems, "\n");
}

StreamingValidator::StreamingValidator(const Dtd* dtd,
                                       const ConstraintSet* sigma)
    : dtd_(*dtd), sigma_(*sigma) {}

Status StreamingValidator::StartElement(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  NodeId node = static_cast<NodeId>(elements_seen_++);
  dtd_.OnStart(node, name, attrs);
  sigma_.OnStart(node, name, attrs);
  return Status::Ok();
}

Status StreamingValidator::Text(const std::string& /*value*/) {
  dtd_.OnText();
  return Status::Ok();
}

Status StreamingValidator::EndElement(const std::string& /*name*/) {
  dtd_.OnEnd();
  return Status::Ok();
}

StreamingValidator::Summary StreamingValidator::Finish() {
  Summary summary;
  summary.elements_seen = elements_seen_;
  ValidationReport validation = dtd_.Finish();
  EvaluationReport evaluation = sigma_.Finish();
  summary.conforms = validation.valid && evaluation.satisfied;
  for (const DtdViolation& v : validation.violations) {
    summary.problems.push_back(v.message);
  }
  for (const ConstraintViolation& v : evaluation.violations) {
    summary.problems.push_back(v.message);
  }
  return summary;
}

Result<StreamingValidator::Summary> ValidateStream(
    std::string_view xml, const Dtd& dtd, const ConstraintSet& sigma,
    const XmlParseOptions& options) {
  StreamingValidator validator(&dtd, &sigma);
  XICC_RETURN_IF_ERROR(ParseXmlEvents(xml, &validator, options));
  return validator.Finish();
}

}  // namespace xicc
