#pragma once

#include <string>
#include <vector>

#include "constraints/constraint.h"
#include "constraints/evaluator.h"
#include "dtd/dtd.h"
#include "dtd/validator.h"
#include "xml/event_parser.h"

namespace xicc {

/// Single-pass validation of a document against a DTD and a constraint set,
/// without materializing the tree: parser events feed the same DtdChecker
/// and ConstraintChecker that ValidateXml and Evaluate walk a tree into, so
/// both paths report the same problems. Memory is O(open depth +
/// constrained tuples) instead of O(document).
///
/// Works for *every* constraint class, including the statically undecidable
/// multi-attribute C_{K,FK} — checking a given document is the easy
/// direction, and this is the form a production ingest pipeline uses.
class StreamingValidator : public XmlEventHandler {
 public:
  struct Summary {
    bool conforms = true;
    std::vector<std::string> problems;
    size_t elements_seen = 0;

    std::string ToString() const;
  };

  /// `dtd` and `sigma` must outlive the validator. `sigma` may contain any
  /// constraint forms.
  StreamingValidator(const Dtd* dtd, const ConstraintSet* sigma);

  // XmlEventHandler: these never return errors — problems are collected so
  // one pass reports everything. Elements are numbered 0, 1, … in document
  // order; that number is the node a violation names.
  Status StartElement(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& attrs) override;
  Status Text(const std::string& value) override;
  Status EndElement(const std::string& name) override;

  /// End-of-document checks (inclusions and negations need the whole
  /// document) and the verdict.
  Summary Finish();

 private:
  DtdChecker dtd_;
  ConstraintChecker sigma_;
  size_t elements_seen_ = 0;
};

/// Convenience: parse + validate in one pass.
Result<StreamingValidator::Summary> ValidateStream(
    std::string_view xml, const Dtd& dtd, const ConstraintSet& sigma,
    const XmlParseOptions& options = {});

}  // namespace xicc
