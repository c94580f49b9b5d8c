#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dtd/dtd.h"
#include "dtd/glushkov.h"
#include "xml/tree.h"

namespace xicc {

/// One validity defect found while checking a tree against a DTD.
struct DtdViolation {
  NodeId node;
  std::string message;
};

struct ValidationReport {
  bool valid = true;
  std::vector<DtdViolation> violations;

  /// All messages joined with newlines ("valid" when empty).
  std::string ToString() const;
};

class CompiledContentModels;

/// Checks T |= D per Definition 2.2 from element events: the root is
/// lab(root), every element's type is declared, its child label word is in
/// L(P(τ)), and it carries exactly the attributes R(τ). Content models run
/// stepwise, so the checker holds one automaton state per open element and
/// no child words. An element with no children whose model needs exactly
/// one text child passes (parsers drop empty text). Collects all violations
/// rather than stopping at the first.
class DtdChecker : public ElementEventSink {
 public:
  /// `dtd` and `models` must outlive the checker. Content models step
  /// through `models` (the frozen DFAs of a CompiledDtd, built from a DTD
  /// with identical content models) where it has the type, and through a
  /// checker-private lazy matcher otherwise; `models` may be null. Checkers
  /// on different threads may share one `models`.
  explicit DtdChecker(const Dtd& dtd,
                      const CompiledContentModels* models = nullptr);

  void OnStart(NodeId node, const std::string& type,
               const Attributes& attrs) override;
  void OnText() override;
  void OnEnd() override;

  ValidationReport Finish() { return std::move(report_); }

 private:
  struct OpenElement {
    NodeId node;
    std::string type;
    const ContentModelMatcher* matcher;  // Null for undeclared types.
    int state;
    bool had_children;
  };

  const ContentModelMatcher& MatcherFor(const std::string& type);
  void FeedChild(const std::string& symbol);
  void Add(NodeId node, std::string message);

  const Dtd& dtd_;
  const CompiledContentModels* models_;
  std::map<std::string, ContentModelMatcher> own_;  // Lazy, checker-private.
  std::vector<OpenElement> open_;
  ValidationReport report_;
};

/// DtdChecker over a whole tree, in one preorder walk.
ValidationReport ValidateXml(const XmlTree& tree, const Dtd& dtd,
                             const CompiledContentModels* models = nullptr);

}  // namespace xicc
