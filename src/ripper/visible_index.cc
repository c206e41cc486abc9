#include "src/ripper/visible_index.h"

#include <functional>

#include "src/support/metrics.h"
#include "src/uia/control_type.h"

namespace ripper {
namespace {

// An identifier's primary field: the AutomationId, else the name, else
// "[Unnamed]".
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

void IdTable::Build() {
  size_t buckets = 16;
  while (buckets < 2 * keys_.size()) {
    buckets *= 2;
  }
  heads_.assign(buckets, kNone);
  next_.resize(keys_.size());
  // Inserting at the heads in reverse leaves every chain in Add order.
  for (size_t i = keys_.size(); i-- > 0;) {
    uint32_t& head = heads_[Bucket(keys_[i])];
    next_[i] = head;
    head = static_cast<uint32_t>(i);
  }
}

size_t IdTable::Bucket(std::string_view id) const {
  return std::hash<std::string_view>{}(id) & (heads_.size() - 1);
}

uint32_t IdTable::Find(std::string_view id) const {
  if (heads_.empty()) {
    return kNone;
  }
  uint32_t i = heads_[Bucket(id)];
  while (i != kNone && keys_[i] != id) {
    i = next_[i];
  }
  return i;
}

uint32_t IdTable::FindNext(uint32_t i) const {
  uint32_t j = next_[i];
  while (j != kNone && keys_[j] != keys_[i]) {
    j = next_[j];
  }
  return j;
}

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

const std::string& VisibleIndex::NameOf(const gsim::Control& control) {
  const gsim::Application* app = control.application();
  if (app == nullptr || app->instability() == nullptr) {
    return control.TrueName();
  }
  name_ = control.Name();
  return name_;
}

size_t VisibleIndex::WriteId(const gsim::Control& control, const std::string& name,
                             size_t path_begin, std::string& id) const {
  id.assign(PrimaryOf(control.automation_id(), name));
  id += '|';
  id += uia::ControlTypeName(control.Type());
  id += '|';
  const size_t path_offset = id.size();
  id.append(path_, path_begin);
  return path_offset;
}

gsim::Control* VisibleIndex::Descend(gsim::Control& control, size_t path_begin,
                                     const std::string* target) {
  // Pre-order over the visible tree: an offscreen control hides its subtree.
  if (control.IsOffscreen()) {
    return nullptr;
  }
  const std::string& name = NameOf(control);
  if (target == nullptr) {
    if (size_ == entries_.size()) {
      entries_.emplace_back();
    }
    VisibleEntry& entry = entries_[size_++];
    entry.control = &control;
    entry.path_offset = WriteId(control, name, path_begin, entry.control_id);
  } else {
    WriteId(control, name, path_begin, id_);
    if (id_ == *target) {
      return &control;
    }
  }
  // The children's ancestor path is this one plus this control's name. A
  // child whose public Parent() is null (window roots, floating shared
  // surfaces) restarts its path at "" — matching uia::AncestorPath, which
  // stops at the first null parent.
  const size_t end = path_.size();
  if (end > path_begin) {
    path_ += '/';
  }
  path_ += name.empty() ? std::string_view("[Unnamed]") : std::string_view(name);
  auto descend_child = [&](gsim::Control& child) {
    return Descend(child, child.Parent() == nullptr ? path_.size() : path_begin, target);
  };
  gsim::Control* found = nullptr;
  for (gsim::Control* child : control.StaticChildren()) {
    if ((found = descend_child(*child)) != nullptr) {
      break;
    }
  }
  if (found == nullptr && control.popup_open() && control.popup() != nullptr) {
    found = descend_child(*control.popup());
  }
  path_.resize(end);
  return found;
}

bool VisibleIndex::Refresh() {
  const uint64_t generation = app_->ui_generation();
  if (valid_ && generation == cached_generation_) {
    return false;
  }
  // The desktop root's children are the open windows' roots, topmost last,
  // and each root's public Parent() is null, so every window's paths start
  // empty. Descending the windows directly skips the root and marks where
  // the top window's entries begin.
  size_ = 0;
  top_begin_ = 0;
  path_.clear();
  for (gsim::Window* window : app_->OpenWindows()) {
    top_begin_ = size_;
    Descend(window->root(), 0, nullptr);
  }
  by_id_.Clear();
  for (size_t i = 0; i < size_; ++i) {
    by_id_.Add(entries_[i].control_id);
  }
  by_id_.Build();

  valid_ = true;
  cached_generation_ = generation;
  ++rebuilds_;
  return true;
}

gsim::Control* VisibleIndex::First(const std::string& control_id) const {
  const uint32_t i = by_id_.Find(control_id);
  return i == IdTable::kNone ? nullptr : entries_[i].control;
}

std::span<const VisibleEntry> VisibleIndex::Visible(bool* rebuilt) {
  const bool did = Refresh();
  if (!did) {
    ++capture_hits_;
  }
  if (rebuilt != nullptr) {
    *rebuilt = did;
  }
  return std::span<const VisibleEntry>(entries_.data(), size_);
}

gsim::Control* VisibleIndex::FindById(const std::string& control_id) {
  ++lookups_;
  if (valid_ && app_->ui_generation() == cached_generation_) {
    ++capture_hits_;
    return First(control_id);
  }
  // Cold single lookup: an early-terminating walk beats paying for a full
  // rebuild that the next mutation would discard anyway (replay-heavy rip
  // loops look up exactly once per UI state). The cache stays stale; the
  // next capture rebuilds it.
  ++cold_walks_;
  path_.clear();
  for (gsim::Window* window : app_->OpenWindows()) {
    if (gsim::Control* found = Descend(window->root(), 0, &control_id)) {
      return found;
    }
  }
  return nullptr;
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
  return First(control_id);
}

std::span<const VisibleEntry> VisibleIndex::TopWindowEntries() {
  Refresh();
  return std::span<const VisibleEntry>(entries_.data() + top_begin_, size_ - top_begin_);
}

gsim::Control* VisibleIndex::FindByIdInWindow(const std::string& control_id,
                                              const gsim::Window* window) {
  if (!Refresh()) {
    ++capture_hits_;
  }
  ++lookups_;
  for (uint32_t i = by_id_.Find(control_id); i != IdTable::kNone; i = by_id_.FindNext(i)) {
    if (entries_[i].control->window() == window) {
      return entries_[i].control;
    }
  }
  return nullptr;
}

}  // namespace ripper
