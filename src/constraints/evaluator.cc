#include "constraints/evaluator.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <tuple>

#include "base/strings.h"

namespace xicc {

namespace {

/// x[X]: the tuple of X-attribute values of an element, or nullopt if any
/// attribute is missing.
std::optional<std::vector<std::string>> TupleOf(
    const ElementEventSink::Attributes& attrs,
    const std::vector<std::string>& wanted) {
  std::vector<std::string> tuple;
  tuple.reserve(wanted.size());
  for (const std::string& name : wanted) {
    auto it = std::find_if(attrs.begin(), attrs.end(), [&](const auto& attr) {
      return attr.first == name;
    });
    if (it == attrs.end()) return std::nullopt;
    tuple.push_back(it->second);
  }
  return tuple;
}

std::string RenderTuple(const std::vector<std::string>& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + tuple[i] + "\"";
  }
  return out + ")";
}

bool IsInclusion(ConstraintKind kind) {
  return kind == ConstraintKind::kInclusion ||
         kind == ConstraintKind::kNegInclusion;
}

}  // namespace

std::string EvaluationReport::ToString() const {
  if (satisfied) return "satisfied";
  std::vector<std::string> lines;
  lines.reserve(violations.size());
  for (const ConstraintViolation& v : violations) {
    lines.push_back(v.message);
  }
  return Join(lines, "\n");
}

ConstraintChecker::ConstraintChecker(const ConstraintSet& sigma) {
  AddRules(sigma.constraints());
}

ConstraintChecker::ConstraintChecker(const Constraint& constraint) {
  AddRules(std::span<const Constraint>(&constraint, 1));
}

void ConstraintChecker::AddRules(std::span<const Constraint> constraints) {
  // fk_keys_ never reallocates, so rules may point into it.
  fk_keys_.reserve(std::count_if(
      constraints.begin(), constraints.end(), [](const Constraint& c) {
        return c.kind == ConstraintKind::kForeignKey;
      }));
  rules_.reserve(constraints.size() + fk_keys_.capacity());
  readers_.reserve(2 * rules_.capacity());
  auto add = [&](const Constraint& named, ConstraintKind kind) {
    readers_.push_back({named.type1, rules_.size(), true});
    if (IsInclusion(kind)) {
      readers_.push_back({named.type2, rules_.size(), false});
    }
    rules_.push_back({&named, kind, {}, {}, {}, {}});
  };
  for (const Constraint& c : constraints) {
    if (c.kind == ConstraintKind::kForeignKey) {
      add(c, ConstraintKind::kInclusion);
      add(fk_keys_.emplace_back(Constraint::Key(c.type2, c.attrs2)),
          ConstraintKind::kKey);
    } else {
      add(c, c.kind);
    }
  }
  std::sort(readers_.begin(), readers_.end(),
            [](const Reader& a, const Reader& b) {
              return std::tie(a.type, a.rule) < std::tie(b.type, b.rule);
            });
}

void ConstraintChecker::OnStart(NodeId node, const std::string& type,
                                const Attributes& attrs) {
  auto [begin, end] = std::equal_range(
      readers_.begin(), readers_.end(), Reader{type, 0, false},
      [](const Reader& a, const Reader& b) { return a.type < b.type; });
  for (auto it = begin; it != end; ++it) {
    Record(rules_[it->rule], it->left, node, type, attrs);
  }
}

void ConstraintChecker::Record(Rule& rule, bool left_side, NodeId node,
                               const std::string& type,
                               const Attributes& attrs) {
  const Constraint& c = *rule.constraint;
  auto tuple = TupleOf(attrs, left_side ? c.attrs1 : c.attrs2);
  bool negation = rule.kind == ConstraintKind::kNegKey ||
                  rule.kind == ConstraintKind::kNegInclusion;
  if (!tuple.has_value()) {
    if (left_side && !negation) {
      rule.missing.emplace_back(
          c, node, kInvalidNode,
          "element '" + type + "' lacks an attribute referenced by " +
              c.ToString());
    }
    return;
  }
  if (IsInclusion(rule.kind)) {
    if (left_side) {
      rule.left.emplace_back(std::move(*tuple), node);
    } else {
      rule.seen.emplace(std::move(*tuple), node);
    }
    return;
  }
  auto [first, fresh] = rule.seen.emplace(std::move(*tuple), node);
  // A ¬key is satisfied by its first clash; it keeps no more.
  if (fresh || (negation && !rule.clashes.empty())) return;
  rule.clashes.emplace_back(c, node, first->second,
                            "two '" + c.type1 + "' elements share key value " +
                                RenderTuple(first->first));
}

EvaluationReport ConstraintChecker::Finish() {
  EvaluationReport report;
  std::vector<ConstraintViolation>& out = report.violations;
  for (Rule& rule : rules_) {
    const Constraint& c = *rule.constraint;
    std::move(rule.missing.begin(), rule.missing.end(),
              std::back_inserter(out));
    auto dangles = [&](const std::pair<Tuple, NodeId>& left) {
      return rule.seen.count(left.first) == 0;
    };
    switch (rule.kind) {
      case ConstraintKind::kKey:
        std::move(rule.clashes.begin(), rule.clashes.end(),
                  std::back_inserter(out));
        break;
      case ConstraintKind::kNegKey:
        if (rule.clashes.empty()) {
          out.emplace_back(c, kInvalidNode, kInvalidNode,
                           "no two '" + c.type1 + "' elements share a value; " +
                               c.ToString() + " requires a clash");
        }
        break;
      case ConstraintKind::kInclusion:
        for (const auto& left : rule.left) {
          if (!dangles(left)) continue;
          out.emplace_back(c, left.second, kInvalidNode,
                           "value " + RenderTuple(left.first) + " of '" +
                               c.type1 + "' has no matching '" + c.type2 +
                               "' element");
        }
        break;
      case ConstraintKind::kNegInclusion:
        if (std::none_of(rule.left.begin(), rule.left.end(), dangles)) {
          out.emplace_back(c, kInvalidNode, kInvalidNode,
                           "every '" + c.type1 + "' value occurs among '" +
                               c.type2 + "'; " + c.ToString() +
                               " requires a dangling value");
        }
        break;
      case ConstraintKind::kForeignKey:
        break;  // AddRules split it into an inclusion and a key.
    }
  }
  report.satisfied = out.empty();
  return report;
}

EvaluationReport Evaluate(const XmlTree& tree, const Constraint& constraint) {
  ConstraintChecker checker(constraint);
  WalkTree(tree, {&checker});
  return checker.Finish();
}

EvaluationReport Evaluate(const XmlTree& tree, const ConstraintSet& set) {
  ConstraintChecker checker(set);
  WalkTree(tree, {&checker});
  return checker.Finish();
}

}  // namespace xicc
