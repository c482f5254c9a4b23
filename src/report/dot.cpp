#include "report/dot.hpp"

#include <sstream>
#include <vector>

#include "core/comparison.hpp"
#include "core/flexibility.hpp"
#include "core/indexed_name.hpp"
#include "core/taxonomy_table.hpp"
#include "report/svg.hpp"

namespace mpct::report {

namespace {

void emit_node(std::ostringstream& os, const std::string& id,
               const std::string& label) {
  os << "  \"" << id << "\" [label=\"" << xml_escape(label) << "\"];\n";
}

void walk(const HierarchyNode& node, const std::string& parent,
          std::ostringstream& os, int& counter) {
  const std::string id = indexed_name("n", counter++);
  std::string label = node.label;
  if (!node.classes.empty()) {
    label += "\\n";
    label += to_string(node.classes.front());
    if (node.classes.size() > 1) {
      label += " .. " + to_string(node.classes.back());
    }
  }
  emit_node(os, id, label);
  if (!parent.empty()) {
    os << "  \"" << parent << "\" -> \"" << id << "\";\n";
  }
  for (const HierarchyNode& child : node.children) {
    walk(child, id, os, counter);
  }
}

}  // namespace

std::string hierarchy_dot(const HierarchyNode& root) {
  std::ostringstream os;
  os << "digraph hierarchy {\n  rankdir=LR;\n  node [shape=box, "
        "fontname=\"sans-serif\"];\n";
  int counter = 0;
  walk(root, "", os, counter);
  os << "}\n";
  return os.str();
}

std::string morph_dot() {
  std::vector<TaxonomicName> names;
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    if (row.name) names.push_back(*row.name);
  }
  const int n = static_cast<int>(names.size());
  // Full relation, then transitive reduction (Hasse diagram).
  std::vector<std::vector<bool>> edge(
      static_cast<std::size_t>(n),
      std::vector<bool>(static_cast<std::size_t>(n), false));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      edge[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          can_morph_into(names[static_cast<std::size_t>(a)],
                         names[static_cast<std::size_t>(b)]);
    }
  }
  std::ostringstream os;
  os << "digraph morph {\n  rankdir=BT;\n  node [shape=ellipse, "
        "fontname=\"sans-serif\"];\n";
  for (int a = 0; a < n; ++a) {
    const TaxonomicName& name = names[static_cast<std::size_t>(a)];
    os << "  \"" << to_string(name) << "\" [label=\"" << to_string(name)
       << "\\nflex " << flexibility_of(name) << "\"];\n";
  }
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (!edge[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]) {
        continue;
      }
      bool implied = false;
      for (int c = 0; c < n && !implied; ++c) {
        if (c == a || c == b) continue;
        implied =
            edge[static_cast<std::size_t>(a)][static_cast<std::size_t>(c)] &&
            edge[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)];
      }
      if (!implied) {
        // Drawn bottom-up: the more capable class points at what it can
        // impersonate.
        os << "  \"" << to_string(names[static_cast<std::size_t>(a)])
           << "\" -> \"" << to_string(names[static_cast<std::size_t>(b)])
           << "\";\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace mpct::report
