#include "src/dmi/interaction.h"

#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/text/tokens.h"
#include "src/uia/element.h"

namespace dmi {
namespace {

// Detail for a control that lacks the needed pattern: a capability mismatch,
// never transient.
support::ErrorDetail PatternDetail(const gsim::Control& control, const char* pattern) {
  support::ErrorDetail d;
  d.control_name = control.TrueName();
  d.required_pattern = pattern;
  d.retryable = false;
  d.attempts = 1;
  return d;
}

}  // namespace

std::string ScrollStatus::ToString() const {
  return support::Format("scroll(h=%.1f%%, v=%.1f%%)", horizontal_percent, vertical_percent);
}

InteractionInterfaces::InteractionInterfaces(gsim::Application& app, gsim::ScreenView& screen,
                                             InteractionConfig config)
    : app_(&app), screen_(&screen), config_(config) {}

support::Result<gsim::Control*> InteractionInterfaces::Resolve(
    const std::string& label) const {
  gsim::Control* control = screen_->FindByLabel(label);
  if (control == nullptr) {
    support::ErrorDetail d;
    d.control_name = label;
    d.retryable = false;
    d.attempts = 1;
    return support::NotFoundError("no control labeled '" + label +
                                  "' on the current screen")
        .WithDetail(std::move(d));
  }
  return control;
}

support::Status InteractionInterfaces::RetryTransient(
    const std::function<support::Status()>& op) {
  support::Status s = op();
  int attempt = 1;
  uint64_t backoff_total = 0;
  while (!s.ok() && support::IsRetryable(s) && config_.retry.ShouldRetry(attempt)) {
    support::CountMetric("robust.interaction_retries");
    const uint64_t backoff = config_.retry.BackoffTicks(attempt, retry_rng_);
    for (uint64_t t = 0; t < backoff; ++t) {
      app_->Tick();
    }
    backoff_total += backoff;
    ++attempt;
    s = op();
  }
  if (!s.ok()) {
    support::ErrorDetail d;
    if (s.has_detail()) {
      d = s.detail();
    }
    d.retryable = support::IsRetryable(s);
    d.attempts = attempt;
    d.backoff_ticks = backoff_total;
    s = support::Status(s.code(), s.message()).WithDetail(std::move(d));
  }
  return s;
}

support::Result<ScrollStatus> InteractionInterfaces::SetScrollbarPos(const std::string& label,
                                                                     double x_percent,
                                                                     double y_percent) {
  auto control = Resolve(label);
  if (!control.ok()) {
    return control.status();
  }
  auto* scroll = uia::PatternCast<uia::ScrollPattern>(**control);
  if (scroll == nullptr) {
    return support::FailedPreconditionError(
               "control '" + (*control)->TrueName() + "' does not support ScrollPattern")
        .WithDetail(PatternDetail(**control, "ScrollPattern"));
  }
  const double h = x_percent < 0 ? uia::ScrollPattern::kNoScroll : x_percent;
  const double v = y_percent < 0 ? uia::ScrollPattern::kNoScroll : y_percent;
  support::Status s = RetryTransient([&]() {
    support::Status gate = app_->CheckPatternAvailable(**control, "ScrollPattern");
    if (!gate.ok()) {
      return gate;
    }
    return scroll->SetScrollPercent(h, v);
  });
  if (!s.ok()) {
    return s;
  }
  screen_->Refresh();
  ScrollStatus status;
  status.horizontal_percent = scroll->HorizontalPercent();
  status.vertical_percent = scroll->VerticalPercent();
  return status;
}

support::Result<SelectionStatus> InteractionInterfaces::SelectLines(const std::string& label,
                                                                    int start, int end) {
  auto control = Resolve(label);
  if (!control.ok()) {
    return control.status();
  }
  auto* text = uia::PatternCast<uia::TextPattern>(**control);
  if (text == nullptr) {
    return support::FailedPreconditionError(
               "control '" + (*control)->TrueName() + "' does not support TextPattern")
        .WithDetail(PatternDetail(**control, "TextPattern"));
  }
  support::Status s =
      RetryTransient([&]() { return text->SelectRange(uia::TextUnit::kLine, start, end); });
  if (!s.ok()) {
    return s;
  }
  SelectionStatus status;
  status.start = start;
  status.end = end;
  status.selected_text = text->GetSelectedText();
  return status;
}

support::Result<SelectionStatus> InteractionInterfaces::SelectParagraphs(
    const std::string& label, int start, int end) {
  auto control = Resolve(label);
  if (!control.ok()) {
    return control.status();
  }
  auto* text = uia::PatternCast<uia::TextPattern>(**control);
  if (text == nullptr) {
    return support::FailedPreconditionError(
               "control '" + (*control)->TrueName() + "' does not support TextPattern")
        .WithDetail(PatternDetail(**control, "TextPattern"));
  }
  support::Status s = RetryTransient(
      [&]() { return text->SelectRange(uia::TextUnit::kParagraph, start, end); });
  if (!s.ok()) {
    return s;
  }
  SelectionStatus status;
  status.start = start;
  status.end = end;
  status.selected_text = text->GetSelectedText();
  return status;
}

support::Status InteractionInterfaces::SelectControls(const std::vector<std::string>& labels) {
  if (labels.empty()) {
    return support::InvalidArgumentError("select_controls requires at least one label");
  }
  // Conservative execution (§4.4): verify every control first; only then act.
  std::vector<uia::SelectionItemPattern*> patterns;
  for (const std::string& label : labels) {
    auto control = Resolve(label);
    if (!control.ok()) {
      return control.status();
    }
    auto* sel = uia::PatternCast<uia::SelectionItemPattern>(**control);
    if (sel == nullptr) {
      return support::FailedPreconditionError(
                 "control '" + (*control)->TrueName() +
                 "' does not support SelectionItemPattern; nothing was executed")
          .WithDetail(PatternDetail(**control, "SelectionItemPattern"));
    }
    patterns.push_back(sel);
  }
  for (size_t i = 0; i < patterns.size(); ++i) {
    support::Status s = RetryTransient(
        [&]() { return i == 0 ? patterns[i]->Select() : patterns[i]->AddToSelection(); });
    if (!s.ok()) {
      return s;
    }
  }
  screen_->Refresh();
  return support::Status::Ok();
}

support::Status InteractionInterfaces::SetToggleState(const std::string& label, bool on) {
  auto control = Resolve(label);
  if (!control.ok()) {
    return control.status();
  }
  auto* toggle = uia::PatternCast<uia::TogglePattern>(**control);
  if (toggle == nullptr) {
    return support::FailedPreconditionError(
               "control '" + (*control)->TrueName() + "' does not support TogglePattern")
        .WithDetail(PatternDetail(**control, "TogglePattern"));
  }
  const uia::ToggleState want = on ? uia::ToggleState::kOn : uia::ToggleState::kOff;
  if (toggle->State() == want) {
    return support::Status::Ok();  // declarative: already in the target state
  }
  support::Status s = RetryTransient([&]() { return toggle->Toggle(); });
  screen_->Refresh();
  return s;
}

support::Status InteractionInterfaces::SetTexts(const std::string& label,
                                                const std::string& text) {
  auto control = Resolve(label);
  if (!control.ok()) {
    return control.status();
  }
  auto* value = uia::PatternCast<uia::ValuePattern>(**control);
  if (value == nullptr) {
    return support::FailedPreconditionError(
               "control '" + (*control)->TrueName() + "' does not support ValuePattern")
        .WithDetail(PatternDetail(**control, "ValuePattern"));
  }
  if (value->GetValue() == text) {
    return support::Status::Ok();  // declarative: already in the target state
  }
  support::Status s = RetryTransient([&]() { return value->SetValue(text); });
  screen_->Refresh();
  return s;
}

support::Status InteractionInterfaces::SetRangeValue(const std::string& label,
                                                     double value) {
  auto control = Resolve(label);
  if (!control.ok()) {
    return control.status();
  }
  auto* range = uia::PatternCast<uia::RangeValuePattern>(**control);
  if (range == nullptr) {
    return support::FailedPreconditionError(
               "control '" + (*control)->TrueName() + "' does not support RangeValuePattern")
        .WithDetail(PatternDetail(**control, "RangeValuePattern"));
  }
  if (range->Value() == value) {
    return support::Status::Ok();  // declarative: already at the target
  }
  support::Status s = RetryTransient([&]() { return range->SetValue(value); });
  screen_->Refresh();
  return s;
}

support::Status InteractionInterfaces::SetExpanded(const std::string& label, bool expanded) {
  auto control = Resolve(label);
  if (!control.ok()) {
    return control.status();
  }
  auto* ec = uia::PatternCast<uia::ExpandCollapsePattern>(**control);
  if (ec == nullptr) {
    return support::FailedPreconditionError(
               "control '" + (*control)->TrueName() + "' does not support ExpandCollapsePattern")
        .WithDetail(PatternDetail(**control, "ExpandCollapsePattern"));
  }
  support::Status s = RetryTransient([&]() { return expanded ? ec->Expand() : ec->Collapse(); });
  screen_->Refresh();
  return s;
}

support::Result<std::string> InteractionInterfaces::GetTextsActive(const std::string& label) {
  auto control = Resolve(label);
  if (!control.ok()) {
    return control.status();
  }
  // TextPattern first, ValuePattern as fallback (§3.5: implemented on
  // TextPattern and ValuePattern; generalizes beyond DataItems).
  if (auto* text = uia::PatternCast<uia::TextPattern>(**control)) {
    return text->GetText();
  }
  if (auto* value = uia::PatternCast<uia::ValuePattern>(**control)) {
    return value->GetValue();
  }
  return support::FailedPreconditionError(
             "control '" + (*control)->TrueName() + "' supports neither Text nor Value pattern")
      .WithDetail(PatternDetail(**control, "TextPattern|ValuePattern"));
}

std::string InteractionInterfaces::GetTextsPassive() const {
  // Every visible DataItem's value, truncated; empty cells coalesce into one
  // summary line (paper §3.5 "Supporting precise perception by default").
  std::string out;
  size_t emitted = 0;
  size_t empty = 0;
  const std::span<const gsim::CaptureEntry> labeled = screen_->labeled();
  for (size_t i = 0; i < labeled.size(); ++i) {
    gsim::Control& control = *labeled[i].control;
    if (control.Type() != uia::ControlType::kDataItem) {
      continue;
    }
    auto* value = uia::PatternCast<uia::ValuePattern>(control);
    const std::string v = value != nullptr ? value->GetValue() : control.text_value();
    if (v.empty()) {
      ++empty;
      continue;
    }
    if (emitted >= config_.passive_item_limit) {
      continue;
    }
    out += gsim::IndexToLabel(i) + " " + control.TrueName() + "=" +
           textutil::TruncateToTokens(v, config_.passive_item_token_cap) + "\n";
    ++emitted;
  }
  if (empty > 0) {
    out += support::Format("(%zu data items are empty)\n", empty);
  }
  return out;
}

}  // namespace dmi
