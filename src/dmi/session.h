// DmiSession: the end-to-end DMI facade.
//
// Offline (once per application build): rip the UI Navigation Graph, decycle
// it, run cost-based selective externalization, and build the query-on-demand
// catalog — all captured in an immutable, shareable dmi::CompiledModel
// (compiled_model.h). Online (per task): a thin session attaches a live
// application to a shared model and serves the pruned core topology + screen
// labels + passive data payload as prompt context, executing visit / state /
// observation declarations against the live application. Session construction
// on a pre-compiled model is O(dynamic state), not O(topology) (DESIGN.md §10).
#ifndef SRC_DMI_SESSION_H_
#define SRC_DMI_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/describe/catalog.h"
#include "src/dmi/compiled_model.h"
#include "src/dmi/interaction.h"
#include "src/dmi/visit.h"
#include "src/gui/application.h"
#include "src/gui/screen.h"
#include "src/ripper/ripper.h"
#include "src/topology/nav_graph.h"
#include "src/topology/transform.h"

namespace dmi {

// Per-run knobs for a session attached to a pre-compiled model. Everything
// topological lives in ModelingOptions and is baked into the CompiledModel.
struct SessionOptions {
  VisitConfig visit;
  InteractionConfig interaction;
};

// Zero-copy prompt context (DESIGN.md §12): the static segment (usage hint +
// core topology) lives on the shared CompiledModel — one copy per app kind,
// however many sessions are attached — and the dynamic segment (screen
// listing + passive data payload) is this session's generation-cached state.
// `tokens` equals CountTokens(static + dynamic); the join point falls on a
// newline, so the segment sum is exact.
struct PromptView {
  const std::string* static_text = nullptr;
  const std::string* dynamic_text = nullptr;
  size_t tokens = 0;

  // Materializes the concatenation (tests, tools, anything that needs one
  // contiguous string). The hot paths consume the segments directly.
  std::string Assemble() const;
};

class DmiSession {
 public:
  // Attaches a live application to a compiled model (CompiledModel::Compile
  // from a ripped graph, or a `.dmim` artifact load — model_artifact.h,
  // DESIGN.md §14); sessions share one model read-only. The visit config
  // defaults to VisitConfig{} and the interaction config to the one the model
  // was compiled with; the second overload sets both per run.
  DmiSession(gsim::Application& app, std::shared_ptr<const CompiledModel> model);
  DmiSession(gsim::Application& app, std::shared_ptr<const CompiledModel> model,
             const SessionOptions& options);

  const ModelingStats& stats() const { return model_->stats(); }
  const desc::TopologyCatalog& catalog() const { return model_->catalog(); }
  const CompiledModel& model() const { return *model_; }
  std::shared_ptr<const CompiledModel> shared_model() const { return model_; }
  gsim::ScreenView& screen() { return screen_; }
  InteractionInterfaces& interaction() { return interaction_; }
  gsim::Application& app() { return *app_; }

  // ----- the three declarative primitives ------------------------------------
  VisitReport Visit(const std::string& json_commands);
  VisitReport VisitParsed(std::vector<VisitCommand> commands);
  // state/observation declarations live on interaction().

  // ----- per-run robustness plumbing (DESIGN.md §11) -------------------------
  // Tick budget enforced by the visit executor's retry loops and command
  // dispatch; default unlimited.
  void SetRunDeadline(support::Deadline deadline) { executor_->SetDeadline(deadline); }
  const support::Deadline& run_deadline() const { return executor_->deadline(); }
  // Deterministic backoff-jitter seed for this run (visit + interaction).
  void SeedRetryRng(uint64_t seed) {
    executor_->SeedRetryRng(seed);
    interaction_.SeedRetryRng(seed ^ 0x5bd1e9955bd1e995ULL);
  }
  // The run's flight recorder (DESIGN.md §13): the visit executor streams
  // executed commands + retry spending into it. Borrowed; nullptr = off.
  void SetFlightRecorder(support::FlightRecorder* recorder) {
    executor_->SetFlightRecorder(recorder);
  }
  support::FlightRecorder* flight_recorder() const { return executor_->flight_recorder(); }

  // ----- prompt assembly --------------------------------------------------------
  // Core topology + DMI usage hint + screen labels + passive data payload,
  // served as a two-segment view: the static segment comes straight off the
  // shared CompiledModel and the dynamic segment is cached against the
  // application's UI-state generation — a warm turn (no UI mutation since the
  // last build) re-renders nothing. Mutating the UI through any
  // generation-bumping path invalidates the dynamic cache (DESIGN.md §9, §12).
  PromptView Prompt();
  // Reference (cache-bypassing) assembly; tests assert the cached segments
  // byte-identical against it.
  std::string BuildPromptContextUncached();
  // Count-only path: shared static count plus the streamed dynamic segment,
  // never materializing the assembled prompt (or even the dynamic segment
  // when only the count is needed). Equal to
  // CountTokens(BuildPromptContextUncached()).
  size_t PromptTokens();
  // Resident per-session prompt-cache bytes: the dynamic segment only. The
  // static segment's bytes live once on the shared model
  // (model().static_prompt().size()).
  size_t PromptCacheBytes() const { return prompt_cache_.dynamic.size(); }

  // ----- name-based resolution (used by task ground truth and examples) --------
  // Forwards to the compiled model (pure query on the immutable forest/DAG).
  support::Result<ResolvedTarget> ResolveTargetByNames(const std::vector<std::string>& names);

 private:
  // Dynamic prompt segment + token count, valid while the application's
  // UI-state generation is unchanged. Only the dynamic segment is cached
  // per session; the static segment is shared on the CompiledModel. A
  // count-only probe (PromptTokens) fills `dynamic_tokens` without
  // materializing `dynamic`.
  struct PromptCache {
    uint64_t generation = 0;
    bool tokens_valid = false;
    bool text_valid = false;
    std::string dynamic;
    size_t dynamic_tokens = 0;
  };

  gsim::Application* app_;
  std::shared_ptr<const CompiledModel> model_;
  gsim::ScreenView screen_;
  std::unique_ptr<VisitExecutor> executor_;
  InteractionInterfaces interaction_;
  PromptCache prompt_cache_;
};

}  // namespace dmi

#endif  // SRC_DMI_SESSION_H_
