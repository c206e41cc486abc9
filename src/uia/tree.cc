#include "src/uia/tree.h"

namespace uia {
namespace {

void WalkImpl(Element& node, int depth, const std::function<bool(Element&, int)>& visitor) {
  if (!visitor(node, depth)) {
    return;
  }
  for (Element* child : node.Children()) {
    WalkImpl(*child, depth + 1, visitor);
  }
}

}  // namespace

void Walk(Element& root, const std::function<bool(Element&, int)>& visitor) {
  WalkImpl(root, 1, visitor);
}

std::vector<Element*> FindAll(Element& root, const std::function<bool(Element&)>& pred) {
  std::vector<Element*> out;
  Walk(root, [&](Element& e, int) {
    if (pred(e)) {
      out.push_back(&e);
    }
    return true;
  });
  return out;
}

Element* FindByName(Element& root, const std::string& name) {
  Element* found = nullptr;
  Walk(root, [&](Element& e, int) {
    if (found != nullptr) {
      return false;
    }
    if (e.Name() == name) {
      found = &e;
      return false;
    }
    return true;
  });
  return found;
}

Element* FindByRuntimeId(Element& root, uint64_t runtime_id) {
  Element* found = nullptr;
  Walk(root, [&](Element& e, int) {
    if (found != nullptr) {
      return false;
    }
    if (e.RuntimeId() == runtime_id) {
      found = &e;
      return false;
    }
    return true;
  });
  return found;
}

size_t CountNodes(Element& root) {
  size_t n = 0;
  Walk(root, [&](Element&, int) {
    ++n;
    return true;
  });
  return n;
}

int MaxDepth(Element& root) {
  int max_depth = 0;
  Walk(root, [&](Element&, int depth) {
    if (depth > max_depth) {
      max_depth = depth;
    }
    return true;
  });
  return max_depth;
}

std::string AncestorPath(const Element& element) {
  std::vector<const Element*> chain;
  for (const Element* p = element.Parent(); p != nullptr; p = p->Parent()) {
    chain.push_back(p);
  }
  std::string path;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!path.empty()) {
      path += '/';
    }
    std::string n = (*it)->Name();
    path += n.empty() ? "[Unnamed]" : n;
  }
  return path;
}

}  // namespace uia
