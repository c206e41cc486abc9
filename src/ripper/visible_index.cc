#include "src/ripper/visible_index.h"

#include <functional>

#include "src/ripper/identifier.h"
#include "src/support/metrics.h"
#include "src/uia/element.h"

namespace ripper {
namespace {

// Mirrors identifier.cc's Primary(): AutomationId > Name > "[Unnamed]".
const std::string& PrimaryOf(const std::string& automation_id, const std::string& name) {
  static const std::string kUnnamed = "[Unnamed]";
  if (!automation_id.empty()) {
    return automation_id;
  }
  if (!name.empty()) {
    return name;
  }
  return kUnnamed;
}

}  // namespace

VisibleIndex::~VisibleIndex() {
  // One registry touch per index lifetime; zero tallies stay off the registry
  // so unused indexes don't mint counters.
  if (rebuilds_ != 0) {
    support::CountMetric("visible_index.rebuilds", rebuilds_);
  }
  if (capture_hits_ != 0) {
    support::CountMetric("visible_index.capture_hits", capture_hits_);
  }
  if (lookups_ != 0) {
    support::CountMetric("visible_index.lookups", lookups_);
  }
  if (cold_walks_ != 0) {
    support::CountMetric("visible_index.cold_walks", cold_walks_);
  }
}

bool VisibleIndex::Refresh() {
  const uint64_t generation = app_->ui_generation();
  if (valid_ && generation == cached_generation_) {
    return false;
  }
  // by_id_ holds views into entries_; drop it before touching the strings.
  by_id_.clear();
  const size_t last_size = entries_.size();
  entries_.clear();
  entries_.reserve(last_size);

  // One pre-order walk with incremental ancestor-path synthesis. The visit
  // order, pruning and id strings are identical to the legacy
  // Walk + SynthesizeControlId capture; only the cost differs.
  std::function<void(uia::Element&, const std::string&)> descend =
      [&](uia::Element& e, const std::string& ancestor_path) {
        if (e.IsOffscreen()) {
          return;  // prune, exactly as the legacy capture walk does
        }
        std::string name = e.Name();
        if (e.RuntimeId() != 0) {  // the synthetic desktop root is skipped
          VisibleEntry entry;
          entry.control_id = PrimaryOf(e.AutomationId(), name) + "|" +
                             std::string(uia::ControlTypeName(e.Type())) + "|" +
                             ancestor_path;
          entry.control = static_cast<gsim::Control*>(&e);
          entry.path_offset = entry.control_id.size() - ancestor_path.size();
          entries_.push_back(std::move(entry));
        }
        // A child whose public Parent() is null (window roots, floating
        // shared surfaces) restarts its path at "" — matching
        // uia::AncestorPath, which stops at the first null parent.
        std::string child_path;
        bool child_path_built = false;
        for (uia::Element* child : e.Children()) {
          const std::string* path = &child_path;
          if (child->Parent() == nullptr) {
            static const std::string kEmpty;
            path = &kEmpty;
          } else if (!child_path_built) {
            child_path = ancestor_path;
            if (!child_path.empty()) {
              child_path += '/';
            }
            child_path += name.empty() ? "[Unnamed]" : name;
            child_path_built = true;
          }
          descend(*child, *path);
        }
      };
  // The desktop root's children are the open windows' roots, topmost last,
  // and each root's public Parent() is null, so every window's paths start
  // empty. Descending the windows directly skips the root and marks where
  // the top window's entries begin.
  top_begin_ = 0;
  for (gsim::Window* window : app_->OpenWindows()) {
    top_begin_ = entries_.size();
    descend(window->root(), "");
  }

  // Second pass: entries_ no longer reallocates, so views into its id
  // strings are stable for the lifetime of this generation.
  by_id_.reserve(entries_.size());
  for (VisibleEntry& entry : entries_) {
    by_id_[std::string_view(entry.control_id)].push_back(entry.control);
  }

  valid_ = true;
  cached_generation_ = generation;
  ++rebuilds_;
  return true;
}

const std::vector<VisibleEntry>& VisibleIndex::Visible(bool* rebuilt) {
  const bool did = Refresh();
  if (!did) {
    ++capture_hits_;
  }
  if (rebuilt != nullptr) {
    *rebuilt = did;
  }
  return entries_;
}

gsim::Control* VisibleIndex::FindById(const std::string& control_id) {
  ++lookups_;
  const uint64_t generation = app_->ui_generation();
  if (valid_ && generation == cached_generation_) {
    ++capture_hits_;
    auto it = by_id_.find(std::string_view(control_id));
    if (it == by_id_.end() || it->second.empty()) {
      return nullptr;
    }
    return it->second.front();
  }
  // Cold single lookup: an early-terminating walk beats paying for a full
  // rebuild that the next mutation would discard anyway (replay-heavy rip
  // loops look up exactly once per UI state). The cache stays stale; the
  // next capture rebuilds it.
  ++cold_walks_;
  gsim::Control* found = nullptr;
  std::function<void(uia::Element&, const std::string&)> descend =
      [&](uia::Element& e, const std::string& ancestor_path) {
        if (found != nullptr || e.IsOffscreen()) {
          return;
        }
        std::string name = e.Name();
        if (e.RuntimeId() != 0) {
          std::string id = PrimaryOf(e.AutomationId(), name) + "|" +
                           std::string(uia::ControlTypeName(e.Type())) + "|" + ancestor_path;
          if (id == control_id) {
            found = static_cast<gsim::Control*>(&e);
            return;
          }
        }
        std::string child_path;
        bool child_path_built = false;
        for (uia::Element* child : e.Children()) {
          if (found != nullptr) {
            return;
          }
          const std::string* path = &child_path;
          if (child->Parent() == nullptr) {
            static const std::string kEmpty;
            path = &kEmpty;
          } else if (!child_path_built) {
            child_path = ancestor_path;
            if (!child_path.empty()) {
              child_path += '/';
            }
            child_path += name.empty() ? "[Unnamed]" : name;
            child_path_built = true;
          }
          descend(*child, *path);
        }
      };
  descend(app_->AccessibilityRoot(), "");
  return found;
}

gsim::Control* VisibleIndex::FindByIdEnsureFresh(const std::string& control_id,
                                                 bool* rebuilt) {
  const bool did = Refresh();
  if (!did) {
    ++capture_hits_;
  }
  if (rebuilt != nullptr) {
    *rebuilt = did;
  }
  ++lookups_;
  auto it = by_id_.find(std::string_view(control_id));
  if (it == by_id_.end() || it->second.empty()) {
    return nullptr;
  }
  return it->second.front();
}

std::span<const VisibleEntry> VisibleIndex::TopWindowEntries() {
  Refresh();
  return std::span<const VisibleEntry>(entries_).subspan(top_begin_);
}

gsim::Control* VisibleIndex::FindByIdInWindow(const std::string& control_id,
                                              const gsim::Window* window) {
  if (!Refresh()) {
    ++capture_hits_;
  }
  ++lookups_;
  auto it = by_id_.find(std::string_view(control_id));
  if (it == by_id_.end()) {
    return nullptr;
  }
  for (gsim::Control* control : it->second) {
    if (control->window() == window) {
      return control;
    }
  }
  return nullptr;
}

}  // namespace ripper
