#include "src/gui/capture.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/gui/application.h"
#include "src/support/metrics.h"
#include "src/uia/control_type.h"

namespace gsim {
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

void Capture::FlushCounters() {
  const std::pair<const char*, uint64_t*> tallies[] = {
      {"visible_index.rebuilds", &rebuilds_},
      {"visible_index.capture_hits", &capture_hits_},
      {"visible_index.lookups", &lookups_},
      {"visible_index.cold_walks", &cold_walks_}};
  for (const auto& [name, tally] : tallies) {
    // Zero tallies stay off the registry: an unused capture mints no counter.
    if (*tally != 0) {
      support::CountMetric(name, *tally);
    }
    *tally = 0;
  }
}

bool Capture::IsCurrent() const { return walked_ && generation_ == app_->ui_generation(); }

void Capture::Refresh() {
  if (!IsCurrent()) {
    Walk(nullptr);
  }
}

Control* Capture::Walk(const std::string* target) {
  ++walks_;
  size_ = 0;
  top_begin_ = 0;
  ids_written_ = 0;
  indexed_ = false;
  walked_ = false;
  // The open windows' roots, topmost last: the desktop root's children.
  for (Window* window : app_->OpenWindows()) {
    top_begin_ = size_;
    if (Control* found = Descend(window->root(), CaptureEntry::kNoParent, target)) {
      return found;
    }
  }
  walked_ = true;
  generation_ = app_->ui_generation();
  return nullptr;
}

Control* Capture::Descend(Control& control, uint32_t parent, const std::string* target) {
  // Pre-order over the visible tree: an offscreen control hides its subtree.
  if (control.IsOffscreen()) {
    return nullptr;
  }
  if (size_ == entries_.size()) {
    entries_.emplace_back();
  }
  const auto index = static_cast<uint32_t>(size_++);
  entries_[index].control = &control;
  entries_[index].parent = parent;
  if (target != nullptr) {
    WriteIds(size_);
    if (entries_[index].control_id == *target) {
      return &control;
    }
  }
  for (Control* child : control.StaticChildren()) {
    if (Control* found = Descend(*child, index, target)) {
      return found;
    }
  }
  if (control.popup_open() && control.popup() != nullptr) {
    return Descend(*control.popup(), index, target);
  }
  return nullptr;
}

void Capture::WriteIds(size_t end) {
  // Pre-order puts every entry after the one it extends, and the entries in
  // between only append to path_ past that entry's end, so trimming path_
  // there leaves exactly the open levels' paths.
  for (size_t i = ids_written_; i < end; ++i) {
    CaptureEntry& entry = entries_[i];
    const Control& control = *entry.control;
    size_t begin = 0;
    if (entry.parent == CaptureEntry::kNoParent) {
      path_.clear();
    } else {
      const CaptureEntry& from = entries_[entry.parent];
      path_.resize(from.path_end);
      begin = control.Parent() == nullptr ? from.path_end : from.path_begin;
    }
    const std::string& name = control.ShownName(name_);
    std::string& id = entry.control_id;
    id.assign(PrimaryOf(control.automation_id(), name));
    id += '|';
    id += uia::ControlTypeName(control.Type());
    id += '|';
    entry.path_offset = id.size();
    id.append(path_, begin);
    // The children's ancestor path is this one plus this control's name.
    entry.path_begin = begin;
    if (path_.size() > begin) {
      path_ += '/';
    }
    path_ += name.empty() ? std::string_view("[Unnamed]") : std::string_view(name);
    entry.path_end = path_.size();
  }
  ids_written_ = end;
}

bool Capture::Index() {
  if (IsCurrent() && indexed_) {
    return false;
  }
  Refresh();
  WriteIds(size_);
  by_id_.Clear();
  for (size_t i = 0; i < size_; ++i) {
    by_id_.Add(entries_[i].control_id);
  }
  by_id_.Build();
  indexed_ = true;
  ++rebuilds_;
  return true;
}

Control* Capture::First(const std::string& control_id) const {
  const uint32_t i = by_id_.Find(control_id);
  return i == IdTable::kNone ? nullptr : entries_[i].control;
}

std::span<const CaptureEntry> Capture::Visible(bool* rebuilt) {
  const bool built = Index();
  capture_hits_ += built ? 0 : 1;
  if (rebuilt != nullptr) {
    *rebuilt = built;
  }
  return entries();
}

Control* Capture::FindById(const std::string& control_id) {
  ++lookups_;
  if (IsCurrent() && indexed_) {
    ++capture_hits_;
    return First(control_id);
  }
  // Stale: ids only up to the match, over this generation's walk if it has
  // one. The id capture stays unbuilt; the next id query builds it.
  ++cold_walks_;
  if (!IsCurrent()) {
    return Walk(&control_id);
  }
  for (size_t i = 0; i < size_; ++i) {
    WriteIds(std::max(ids_written_, i + 1));
    if (entries_[i].control_id == control_id) {
      return entries_[i].control;
    }
  }
  return nullptr;
}

Control* Capture::FindByIdEnsureFresh(const std::string& control_id, bool* rebuilt) {
  const bool built = Index();
  capture_hits_ += built ? 0 : 1;
  if (rebuilt != nullptr) {
    *rebuilt = built;
  }
  ++lookups_;
  return First(control_id);
}

Control* Capture::FindByIdInWindow(const std::string& control_id, const Window* window) {
  capture_hits_ += Index() ? 0 : 1;
  ++lookups_;
  for (uint32_t i = by_id_.Find(control_id); i != IdTable::kNone; i = by_id_.FindNext(i)) {
    if (entries_[i].control->window() == window) {
      return entries_[i].control;
    }
  }
  return nullptr;
}

std::span<const CaptureEntry> Capture::TopWindowEntries() {
  Index();
  return std::span<const CaptureEntry>(entries_.data() + top_begin_, size_ - top_begin_);
}

}  // namespace gsim
