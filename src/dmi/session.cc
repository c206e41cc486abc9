#include "src/dmi/session.h"

#include <algorithm>
#include <utility>

#include "src/support/metrics.h"
#include "src/text/tokens.h"

namespace dmi {
namespace {

// Dynamic-segment headers. Both start or end on a newline, so the
// segment-split token counts below sum exactly to the concatenation's count
// (see textutil::CountTokensAppend).
constexpr char kScreenHeader[] = "\n# Current screen\n";
constexpr char kDataHeader[] = "# Data items\n";

support::Counter& PromptCacheHits() {
  static support::Counter& hits =
      support::MetricsRegistry::Global().GetCounter("describe.prompt_cache_hits");
  return hits;
}

support::Counter& PromptCacheMisses() {
  static support::Counter& misses =
      support::MetricsRegistry::Global().GetCounter("describe.prompt_cache_misses");
  return misses;
}

}  // namespace

std::string PromptView::Assemble() const {
  std::string out;
  out.reserve(static_text->size() + dynamic_text->size());
  out += *static_text;
  out += *dynamic_text;
  return out;
}

DmiSession::DmiSession(gsim::Application& app, std::shared_ptr<const CompiledModel> model)
    : DmiSession(app, model, SessionOptions{VisitConfig{}, model->options().interaction}) {}

DmiSession::DmiSession(gsim::Application& app, std::shared_ptr<const CompiledModel> model,
                       const SessionOptions& options)
    : app_(&app),
      model_(std::move(model)),
      screen_(app),
      executor_(std::make_unique<VisitExecutor>(app, model_->catalog(), options.visit)),
      interaction_(app, screen_, options.interaction) {
  support::CountMetric("session.compile_attach");
  screen_.Refresh();
}

VisitReport DmiSession::Visit(const std::string& json_commands) {
  VisitReport report = executor_->Execute(json_commands);
  screen_.Refresh();
  return report;
}

VisitReport DmiSession::VisitParsed(std::vector<VisitCommand> commands) {
  VisitReport report = executor_->ExecuteParsed(std::move(commands));
  screen_.Refresh();
  return report;
}

PromptView DmiSession::Prompt() {
  const uint64_t generation = app_->ui_generation();
  if (prompt_cache_.text_valid && prompt_cache_.generation == generation) {
    PromptCacheHits().Increment();
  } else {
    PromptCacheMisses().Increment();
    // Only the screen/data segment depends on live UI state; the static
    // segment (usage hint + core topology) is shared on the CompiledModel.
    // Refresh() lays out at most once per generation and never bumps it, so
    // the stamp taken above stays valid for the rebuilt cache entry.
    screen_.Refresh();
    std::string dynamic = kScreenHeader;
    dynamic += screen_.RenderListing();
    const std::string payload = interaction_.GetTextsPassive();
    if (!payload.empty()) {
      dynamic += kDataHeader;
      dynamic += payload;
    }
    size_t tokens = 0;
    textutil::CountTokensAppend(dynamic, &tokens);
    prompt_cache_.dynamic = std::move(dynamic);
    prompt_cache_.dynamic_tokens = tokens;
    prompt_cache_.generation = generation;
    prompt_cache_.tokens_valid = true;
    prompt_cache_.text_valid = true;
  }
  return PromptView{&model_->static_prompt(), &prompt_cache_.dynamic,
                    model_->static_prompt_tokens() + prompt_cache_.dynamic_tokens};
}

size_t DmiSession::PromptTokens() {
  const uint64_t generation = app_->ui_generation();
  if (prompt_cache_.tokens_valid && prompt_cache_.generation == generation) {
    PromptCacheHits().Increment();
    return model_->static_prompt_tokens() + prompt_cache_.dynamic_tokens;
  }
  PromptCacheMisses().Increment();
  // Count-only rebuild: streams each dynamic piece through the token counter
  // without concatenating them (every split point falls on a newline, so the
  // segment sums are exact); the listing's count is the screen's own,
  // memoized per generation. The text cache stays unset — a later Prompt()
  // call materializes the dynamic segment if anyone needs the bytes.
  screen_.Refresh();
  size_t tokens = screen_.ListingTokens();
  textutil::CountTokensAppend(kScreenHeader, &tokens);
  const std::string payload = interaction_.GetTextsPassive();
  if (!payload.empty()) {
    textutil::CountTokensAppend(kDataHeader, &tokens);
    textutil::CountTokensAppend(payload, &tokens);
  }
  prompt_cache_.dynamic.clear();
  prompt_cache_.dynamic_tokens = tokens;
  prompt_cache_.generation = generation;
  prompt_cache_.tokens_valid = true;
  prompt_cache_.text_valid = false;
  return model_->static_prompt_tokens() + tokens;
}

support::Result<ResolvedTarget> DmiSession::ResolveTargetByNames(
    const std::vector<std::string>& names) {
  return model_->ResolveTargetByNames(names);
}

}  // namespace dmi
