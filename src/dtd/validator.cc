#include "dtd/validator.h"

#include <algorithm>

#include "base/strings.h"
#include "dtd/compiled.h"

namespace xicc {

std::string ValidationReport::ToString() const {
  if (valid) return "valid";
  std::vector<std::string> lines;
  lines.reserve(violations.size());
  for (const DtdViolation& v : violations) {
    lines.push_back("node " + std::to_string(v.node) + ": " + v.message);
  }
  return Join(lines, "\n");
}

DtdChecker::DtdChecker(const Dtd& dtd, const CompiledContentModels* models)
    : dtd_(dtd), models_(models) {}

void DtdChecker::Add(NodeId node, std::string message) {
  report_.valid = false;
  report_.violations.push_back({node, std::move(message)});
}

const ContentModelMatcher& DtdChecker::MatcherFor(const std::string& type) {
  if (models_ != nullptr) {
    const ContentModelMatcher* compiled = models_->MatcherFor(type);
    if (compiled != nullptr) return *compiled;
  }
  auto it = own_.find(type);
  if (it == own_.end()) {
    it = own_.emplace(type, ContentModelMatcher(dtd_.ContentOf(type))).first;
  }
  return it->second;
}

void DtdChecker::FeedChild(const std::string& symbol) {
  OpenElement& parent = open_.back();
  parent.had_children = true;
  if (parent.matcher == nullptr ||
      parent.state == ContentModelMatcher::kDeadState) {
    return;
  }
  parent.state = parent.matcher->Step(parent.state, symbol);
  if (parent.state == ContentModelMatcher::kDeadState) {
    Add(parent.node, "children of '" + parent.type + "' leave L(" +
                         dtd_.ContentOf(parent.type)->ToString() + ") at '" +
                         symbol + "'");
  }
}

void DtdChecker::OnStart(NodeId node, const std::string& type,
                         const Attributes& attrs) {
  if (open_.empty()) {
    if (type != dtd_.root()) {
      Add(node, "root is <" + type + ">, DTD requires <" + dtd_.root() + ">");
    }
  } else {
    FeedChild(type);
  }
  const ContentModelMatcher* matcher =
      dtd_.HasElement(type) ? &MatcherFor(type) : nullptr;
  open_.push_back(
      {node, type, matcher, ContentModelMatcher::kStartState, false});
  if (matcher == nullptr) {
    Add(node, "element type '" + type + "' is not declared in the DTD");
    return;
  }
  // Exactly R(τ); single-valuedness is the parser's and the tree's job.
  const std::vector<std::string>& declared = dtd_.AttributesOf(type);
  for (const std::string& required : declared) {
    bool present = std::any_of(
        attrs.begin(), attrs.end(),
        [&](const auto& attr) { return attr.first == required; });
    if (!present) {
      Add(node, "element '" + type + "' is missing required attribute '" +
                    required + "'");
    }
  }
  for (const auto& [name, value] : attrs) {
    if (!std::binary_search(declared.begin(), declared.end(), name)) {
      Add(node, "element '" + type + "' carries undeclared attribute '" +
                    name + "'");
    }
  }
}

void DtdChecker::OnText() { FeedChild("S"); }

void DtdChecker::OnEnd() {
  OpenElement open = std::move(open_.back());
  open_.pop_back();
  if (open.matcher == nullptr ||
      open.state == ContentModelMatcher::kDeadState) {
    return;
  }
  const ContentModelMatcher& matcher = *open.matcher;
  bool accepted = matcher.AcceptsAt(open.state);
  if (!accepted && !open.had_children) {
    // Parsers drop empty text: an element whose model is exactly one text
    // node may legitimately arrive childless.
    accepted = matcher.AcceptsAt(
        matcher.Step(ContentModelMatcher::kStartState, "S"));
  }
  if (!accepted) {
    Add(open.node, "children of '" + open.type + "' stop short of L(" +
                       dtd_.ContentOf(open.type)->ToString() + ")");
  }
}

ValidationReport ValidateXml(const XmlTree& tree, const Dtd& dtd,
                             const CompiledContentModels* models) {
  DtdChecker checker(dtd, models);
  WalkTree(tree, {&checker});
  return checker.Finish();
}

}  // namespace xicc
