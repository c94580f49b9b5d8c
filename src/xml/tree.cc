#include "xml/tree.h"

#include <algorithm>
#include <unordered_set>

namespace xicc {

XmlTree::XmlTree(std::string root_label) {
  Node root;
  root.kind = NodeKind::kElement;
  root.label = std::move(root_label);
  nodes_.push_back(std::move(root));
}

NodeId XmlTree::AddElement(NodeId parent, std::string label) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.kind = NodeKind::kElement;
  node.label = std::move(label);
  node.parent = parent;
  nodes_.push_back(std::move(node));
  nodes_[parent].children.push_back(id);
  return id;
}

NodeId XmlTree::AddText(NodeId parent, std::string value) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.kind = NodeKind::kText;
  node.value = std::move(value);
  node.parent = parent;
  nodes_.push_back(std::move(node));
  nodes_[parent].children.push_back(id);
  return id;
}

void XmlTree::SetAttribute(NodeId node, std::string name, std::string value) {
  auto& attrs = nodes_[node].attributes;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), name,
      [](const auto& pair, const std::string& key) { return pair.first < key; });
  if (it != attrs.end() && it->first == name) {
    it->second = std::move(value);
  } else {
    attrs.insert(it, {std::move(name), std::move(value)});
  }
}

std::optional<std::string_view> XmlTree::AttributeValue(
    NodeId node, std::string_view name) const {
  const auto& attrs = nodes_[node].attributes;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), name,
      [](const auto& pair, std::string_view key) { return pair.first < key; });
  if (it != attrs.end() && it->first == name) return std::string_view(it->second);
  return std::nullopt;
}

std::vector<NodeId> XmlTree::ExtOfType(std::string_view label) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == NodeKind::kElement && nodes_[id].label == label) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<std::string> XmlTree::ExtOfAttribute(std::string_view label,
                                                 std::string_view attr) const {
  std::vector<std::string> out;
  std::unordered_set<std::string_view> seen;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.kind != NodeKind::kElement || node.label != label) continue;
    if (auto value = AttributeValue(id, attr); value.has_value()) {
      if (seen.insert(*value).second) out.emplace_back(*value);
    }
  }
  return out;
}

std::vector<std::string> XmlTree::ChildLabelWord(NodeId node) const {
  std::vector<std::string> word;
  for (NodeId child : nodes_[node].children) {
    if (nodes_[child].kind == NodeKind::kText) {
      word.emplace_back("S");
    } else {
      word.push_back(nodes_[child].label);
    }
  }
  return word;
}

void WalkTree(const XmlTree& tree,
              std::initializer_list<ElementEventSink*> sinks) {
  auto start = [&](NodeId node) {
    for (ElementEventSink* sink : sinks) {
      sink->OnStart(node, tree.label(node), tree.attributes(node));
    }
  };
  // Open elements, each with the index of its next child to visit.
  std::vector<std::pair<NodeId, size_t>> open;
  start(tree.root());
  open.emplace_back(tree.root(), 0);
  while (!open.empty()) {
    auto& [node, next] = open.back();
    const std::vector<NodeId>& children = tree.children(node);
    if (next == children.size()) {
      for (ElementEventSink* sink : sinks) sink->OnEnd();
      open.pop_back();
      continue;
    }
    NodeId child = children[next++];
    if (!tree.IsElement(child)) {
      for (ElementEventSink* sink : sinks) sink->OnText();
      continue;
    }
    start(child);
    open.emplace_back(child, 0);
  }
}

}  // namespace xicc
