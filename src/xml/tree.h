#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace xicc {

/// Index of a node within an XmlTree's arena.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

enum class NodeKind : uint8_t {
  kElement,  ///< Element of some type τ ∈ E.
  kText,     ///< Text node (label S in the paper), carries a string value.
};

/// A finite node-labeled ordered tree, the XML document model of
/// Definition 2.2 (V, lab, ele, att, val, root).
///
/// Nodes live in a contiguous arena addressed by NodeId; the root is always
/// node 0. Subelements (`ele`) are ordered child lists; attributes (`att` +
/// `val`) are per-element sorted (name, value) pairs — single-valued, as the
/// paper requires. Text nodes are leaves carrying `val`.
class XmlTree {
 public:
  /// Creates a tree containing only a root element labeled `root_label`.
  explicit XmlTree(std::string root_label);

  XmlTree(const XmlTree&) = default;
  XmlTree& operator=(const XmlTree&) = default;
  XmlTree(XmlTree&&) = default;
  XmlTree& operator=(XmlTree&&) = default;

  NodeId root() const { return 0; }
  /// Total number of nodes (elements + text nodes).
  size_t size() const { return nodes_.size(); }

  /// Appends a new element labeled `label` as the last child of `parent`.
  NodeId AddElement(NodeId parent, std::string label);
  /// Appends a new text node with value `value` as the last child of
  /// `parent`.
  NodeId AddText(NodeId parent, std::string value);
  /// Sets (or overwrites) attribute `name` of element `node`.
  void SetAttribute(NodeId node, std::string name, std::string value);

  NodeKind kind(NodeId node) const { return nodes_[node].kind; }
  bool IsElement(NodeId node) const {
    return nodes_[node].kind == NodeKind::kElement;
  }
  /// Element type τ; only meaningful for elements.
  const std::string& label(NodeId node) const { return nodes_[node].label; }
  /// Text value; only meaningful for text nodes.
  const std::string& text(NodeId node) const { return nodes_[node].value; }
  NodeId parent(NodeId node) const { return nodes_[node].parent; }
  const std::vector<NodeId>& children(NodeId node) const {
    return nodes_[node].children;
  }
  /// Attributes of `node`, sorted by name.
  const std::vector<std::pair<std::string, std::string>>& attributes(
      NodeId node) const {
    return nodes_[node].attributes;
  }

  /// x.l — the value of attribute `name` on `node`, if present.
  std::optional<std::string_view> AttributeValue(NodeId node,
                                                 std::string_view name) const;

  /// ext(τ): all element nodes labeled `label`, in document order.
  std::vector<NodeId> ExtOfType(std::string_view label) const;

  /// ext(τ.l): the *set* of l-attribute values over ext(τ), deduplicated,
  /// in first-occurrence order. Elements missing the attribute contribute
  /// nothing.
  std::vector<std::string> ExtOfAttribute(std::string_view label,
                                          std::string_view attr) const;

  /// The sequence of child element/text labels of `node` — the word that the
  /// content model P(lab(node)) must accept. Text children appear as "S".
  std::vector<std::string> ChildLabelWord(NodeId node) const;

 private:
  struct Node {
    NodeKind kind;
    std::string label;  // Element type for elements; empty for text.
    std::string value;  // Text content for text nodes; empty for elements.
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
    std::vector<std::pair<std::string, std::string>> attributes;
  };

  std::vector<Node> nodes_;
};

/// A document as element events in document order — what both a tree walk
/// (WalkTree) and the streaming parser deliver, so each document rule
/// (dtd/validator's DtdChecker, constraints/evaluator's ConstraintChecker)
/// is written once, against this interface.
class ElementEventSink {
 public:
  using Attributes = std::vector<std::pair<std::string, std::string>>;

  virtual ~ElementEventSink() = default;

  /// Start of element `node` (the id reports name it by) of type `type`.
  virtual void OnStart(NodeId node, const std::string& type,
                       const Attributes& attrs) = 0;
  /// A text child of the innermost open element.
  virtual void OnText() {}
  /// End of the innermost open element.
  virtual void OnEnd() {}
};

/// Feeds `tree` to every sink, one event at a time, in preorder. The walk
/// keeps an explicit stack, so tree depth is bounded by memory, not by the
/// C++ stack.
void WalkTree(const XmlTree& tree,
              std::initializer_list<ElementEventSink*> sinks);

}  // namespace xicc
