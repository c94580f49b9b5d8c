#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "constraints/constraint.h"
#include "xml/tree.h"

namespace xicc {

/// One reason a tree fails a constraint. For a key violation, `node` and
/// `other` are the two clashing elements; for an inclusion violation, `node`
/// is the dangling element; for failed negations (which assert existence)
/// both are kInvalidNode.
struct ConstraintViolation {
  ConstraintViolation(const Constraint& c, NodeId node_in, NodeId other_in,
                      std::string message_in)
      : constraint(c),
        node(node_in),
        other(other_in),
        message(std::move(message_in)) {}

  Constraint constraint;
  NodeId node = kInvalidNode;
  NodeId other = kInvalidNode;
  std::string message;
};

struct EvaluationReport {
  bool satisfied = true;
  std::vector<ConstraintViolation> violations;

  std::string ToString() const;
};

/// Dynamic validation: checks T ⊨ Σ per the satisfaction definitions of
/// Section 2.2 from element events, with two notions of equality — string
/// equality on attribute values and node identity on elements. It keeps
/// only the attribute tuples Σ mentions; inclusions and negations are
/// settled by Finish, since they need the whole document. Elements missing
/// an attribute a key or an inclusion's left side references (possible
/// only on DTD-invalid trees) are violations; negations skip them.
///
/// Violations come grouped by constraint in Σ order, and within one
/// constraint in document order: missing attributes first, then clashes or
/// dangling values. A foreign key reports as its inclusion, then its key.
class ConstraintChecker : public ElementEventSink {
 public:
  /// `sigma` (or `constraint`) must outlive the checker.
  explicit ConstraintChecker(const ConstraintSet& sigma);
  explicit ConstraintChecker(const Constraint& constraint);

  void OnStart(NodeId node, const std::string& type,
               const Attributes& attrs) override;

  EvaluationReport Finish();

 private:
  using Tuple = std::vector<std::string>;

  /// One satisfaction check: a key or ¬key on type1[attrs1], or an
  /// inclusion or ¬inclusion type1[attrs1] ⊆ type2[attrs2].
  struct Rule {
    const Constraint* constraint;  // Named in violations.
    ConstraintKind kind;           // Never kForeignKey.
    /// Keys: each tuple's first element. Inclusions: the type2 tuples.
    std::map<Tuple, NodeId> seen;
    std::vector<std::pair<Tuple, NodeId>> left;  // Inclusions' type1 side.
    std::vector<ConstraintViolation> missing;
    std::vector<ConstraintViolation> clashes;  // Keys only.
  };
  /// An element type some rule reads, on its type1 (`left`) or type2 side.
  struct Reader {
    std::string_view type;
    size_t rule;
    bool left;
  };

  void AddRules(std::span<const Constraint> constraints);
  void Record(Rule& rule, bool left_side, NodeId node,
              const std::string& type, const Attributes& attrs);

  std::vector<Constraint> fk_keys_;  // The key half of each foreign key.
  std::vector<Rule> rules_;
  std::vector<Reader> readers_;  // Sorted by type.
};

/// ConstraintChecker over a whole tree, in one preorder walk.
EvaluationReport Evaluate(const XmlTree& tree, const Constraint& constraint);
EvaluationReport Evaluate(const XmlTree& tree, const ConstraintSet& set);

}  // namespace xicc
