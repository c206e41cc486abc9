// Accessibility-tree utilities: traversal and search. The ripper's
// differential capture (paper §4.1), the visit executor and the screen view
// read the application's gsim::Capture (src/gui/capture.h) instead.
#ifndef SRC_UIA_TREE_H_
#define SRC_UIA_TREE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/uia/element.h"

namespace uia {

// Pre-order traversal. The visitor returns false to prune the subtree.
void Walk(Element& root, const std::function<bool(Element&, int depth)>& visitor);

// All elements matching the predicate, in pre-order.
std::vector<Element*> FindAll(Element& root, const std::function<bool(Element&)>& pred);

// First element whose Name() equals `name`, or nullptr.
Element* FindByName(Element& root, const std::string& name);

// First element with the given runtime id, or nullptr.
Element* FindByRuntimeId(Element& root, uint64_t runtime_id);

// Number of elements in the subtree (including root).
size_t CountNodes(Element& root);

// Maximum depth (root = 1).
int MaxDepth(Element& root);

// Slash-joined names of ancestors from the root down to (excluding) the
// element itself. Used in XPath-like identifiers.
std::string AncestorPath(const Element& element);

}  // namespace uia

#endif  // SRC_UIA_TREE_H_
