#include <gtest/gtest.h>

#include <limits>

#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/command.h"
#include "src/dmi/session.h"
#include "src/gui/instability.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/text/tokens.h"
#include "src/uia/tree.h"

namespace {

dmi::ModelingOptions DefaultOptions() {
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account", "Feedback"};
  return options;
}

// The PowerPoint image context (§4.1 context-aware exploration): selects the
// image on slide 3 so the Picture Format tab becomes explorable.
ripper::RipContext PpointImageContext() {
  ripper::RipContext context;
  context.name = "image-selected";
  context.setup = [](gsim::Application& a) {
    auto& pp = static_cast<apps::PpointSim&>(a);
    pp.SetCurrentSlide(2);
    gsim::Control* image = nullptr;
    pp.main_window().root().WalkStatic([&](gsim::Control& c) {
      if (image == nullptr && c.Type() == uia::ControlType::kImage && !c.IsOffscreen()) {
        image = &c;
      }
    });
    if (image != nullptr) {
      (void)a.Click(*image);
    }
  };
  return context;
}

// ----- command parsing ----------------------------------------------------------

TEST(CommandTest, ParsesAllFourKinds) {
  auto cmds = dmi::ParseVisitCommands(
      R"([{"id": "19"},
          {"id": 7, "entry_ref_id": ["14", 15]},
          {"id": "3", "text": "hello"},
          {"shortcut_key": "ENTER"}])");
  ASSERT_TRUE(cmds.ok()) << cmds.status().ToString();
  ASSERT_EQ(cmds->size(), 4u);
  EXPECT_EQ((*cmds)[0].kind, dmi::VisitCommand::Kind::kAccess);
  EXPECT_EQ((*cmds)[0].target_id, 19);
  EXPECT_EQ((*cmds)[1].entry_ref_ids, (std::vector<int>{14, 15}));
  EXPECT_EQ((*cmds)[2].kind, dmi::VisitCommand::Kind::kAccessInput);
  EXPECT_EQ((*cmds)[2].text, "hello");
  EXPECT_EQ((*cmds)[3].kind, dmi::VisitCommand::Kind::kShortcut);
}

TEST(CommandTest, FurtherQueryExclusive) {
  EXPECT_TRUE(dmi::ParseVisitCommands(R"([{"further_query": -1}])").ok());
  auto mixed = dmi::ParseVisitCommands(R"([{"further_query": -1}, {"id": "3"}])");
  EXPECT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), support::StatusCode::kInvalidArgument);
}

TEST(CommandTest, ToleratesSingleObject) {
  auto cmds = dmi::ParseVisitCommands(R"({"id": "5"})");
  ASSERT_TRUE(cmds.ok());
  EXPECT_EQ(cmds->size(), 1u);
}

TEST(CommandTest, RejectsMalformed) {
  EXPECT_FALSE(dmi::ParseVisitCommands("").ok());
  EXPECT_FALSE(dmi::ParseVisitCommands("[]").ok());
  EXPECT_FALSE(dmi::ParseVisitCommands("[3]").ok());
  EXPECT_FALSE(dmi::ParseVisitCommands(R"([{"id": "abc"}])").ok());
  EXPECT_FALSE(dmi::ParseVisitCommands(R"([{"bogus": 1}])").ok());
  EXPECT_FALSE(dmi::ParseVisitCommands(R"([{"shortcut_key": ""}])").ok());
  EXPECT_FALSE(dmi::ParseVisitCommands(R"([{"id": "1", "entry_ref_id": "7"}])").ok());
}

// The pre-index name resolver: scans every tree of the forest for references
// per candidate instead of using the precomputed reverse-reference index.
// Kept verbatim as the behavioral reference — ResolveTargetByNames must return
// identical results after the index swap.
support::Result<dmi::ResolvedTarget> LegacyResolve(const desc::TopologyCatalog& catalog,
                                                   const std::vector<std::string>& names) {
  if (names.empty()) {
    return support::InvalidArgumentError("empty name chain");
  }
  const topo::Forest& forest = catalog.forest();
  const topo::NavGraph& dag = catalog.dag();

  auto refs_to = [&forest](int subtree) {
    std::vector<int> refs;
    auto scan = [&](const topo::Tree& tree) {
      for (const topo::TreeNode& n : tree.nodes) {
        if (n.is_reference && n.ref_subtree == subtree) {
          refs.push_back(n.id);
        }
      }
    };
    scan(forest.main());
    for (const topo::Tree& t : forest.shared()) {
      scan(t);
    }
    return refs;
  };

  auto chain_for = [&](int ref) -> std::vector<int> {
    std::vector<int> chain = {ref};
    int cursor = ref;
    for (int hop = 0; hop < 16; ++hop) {
      auto loc = forest.LocateById(cursor);
      if (!loc.ok() || loc->tree < 0) {
        return chain;
      }
      std::vector<int> outer = refs_to(loc->tree);
      if (outer.empty()) {
        return {};
      }
      chain.push_back(outer[0]);
      cursor = outer[0];
    }
    return {};
  };

  auto matches = [&](const std::vector<int>& path) {
    size_t want = 0;
    for (int node : path) {
      if (want < names.size() && dag.node(node).name == names[want]) {
        ++want;
      }
    }
    return want == names.size();
  };

  dmi::ResolvedTarget best;
  int best_path_len = std::numeric_limits<int>::max();
  for (int id : forest.AllIds()) {
    const topo::TreeNode* node = forest.FindById(id);
    if (node->is_reference) {
      continue;
    }
    if (dag.node(node->graph_index).name != names.back()) {
      continue;
    }
    auto loc = forest.LocateById(id);
    std::vector<std::vector<int>> ref_options;
    if (loc->tree < 0) {
      ref_options.push_back({});
    } else {
      for (int ref : refs_to(loc->tree)) {
        std::vector<int> chain = chain_for(ref);
        if (!chain.empty()) {
          ref_options.push_back(std::move(chain));
        }
      }
    }
    for (const std::vector<int>& refs : ref_options) {
      auto path = forest.ResolvePath(id, refs);
      if (!path.ok() || !matches(*path)) {
        continue;
      }
      if (static_cast<int>(path->size()) < best_path_len) {
        best_path_len = static_cast<int>(path->size());
        best.id = id;
        best.entry_ref_ids = refs;
      }
    }
  }
  if (best.id < 0) {
    return support::NotFoundError("no control matches the name chain ending in '" +
                                  names.back() + "'");
  }
  return best;
}

// Asserts the indexed resolver agrees with the legacy scan on every chain.
void ExpectResolveParity(dmi::DmiSession& session,
                         const std::vector<std::vector<std::string>>& chains) {
  for (const std::vector<std::string>& chain : chains) {
    auto indexed = session.ResolveTargetByNames(chain);
    auto legacy = LegacyResolve(session.catalog(), chain);
    ASSERT_EQ(indexed.ok(), legacy.ok()) << "chain ending in '" << chain.back() << "'";
    if (indexed.ok()) {
      EXPECT_EQ(indexed->id, legacy->id) << "chain ending in '" << chain.back() << "'";
      EXPECT_EQ(indexed->entry_ref_ids, legacy->entry_ref_ids)
          << "chain ending in '" << chain.back() << "'";
    }
  }
}

// Models a *scratch* instance (ripping clicks everything, mutating app
// state), then binds the session to a fresh instance via the portable graph —
// exactly the paper's "model is version-specific but reusable across
// machines" deployment (§5.2).
template <typename App>
std::pair<App*, dmi::DmiSession*> ModelWithScratch(const dmi::ModelingOptions& options) {
  App scratch;
  ripper::GuiRipper rip(scratch, options.ripper_config);
  topo::NavGraph graph = rip.Rip(options.contexts);
  App* live = new App();
  live->CaptureFreshState();  // each test's SetUp factory-resets the shared app
  auto* session = new dmi::DmiSession(*live, std::move(graph), options);
  return {live, session};
}

// ----- session modeling ------------------------------------------------------------

class PpointSession : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dmi::ModelingOptions options = DefaultOptions();
    options.contexts = {PpointImageContext()};
    std::tie(app_, session_) = ModelWithScratch<apps::PpointSim>(options);
  }
  static void TearDownTestSuite() {
    delete session_;
    delete app_;
    session_ = nullptr;
    app_ = nullptr;
  }

  void SetUp() override {
    app_->ResetToFreshState();
    session_->screen().Refresh();
  }

  static apps::PpointSim* app_;
  static dmi::DmiSession* session_;
};

apps::PpointSim* PpointSession::app_ = nullptr;
dmi::DmiSession* PpointSession::session_ = nullptr;

TEST_F(PpointSession, ModelingStatsMatchPaperShape) {
  const dmi::ModelingStats& stats = session_->stats();
  EXPECT_GT(stats.raw.nodes, 4000u);          // §5.2: >4K controls
  EXPECT_GT(stats.raw.merge_nodes, 0u);       // shared palette
  EXPECT_GT(stats.back_edges_removed, 0u);    // pane cycle
  EXPECT_GT(stats.shared_subtrees, 0u);
  EXPECT_GT(stats.references, 1u);
  EXPECT_LT(stats.core_nodes, stats.forest_nodes);  // pruning bites
  EXPECT_LT(stats.core_tokens, stats.full_tokens);
}

TEST_F(PpointSession, Task1SingleVisitCall) {
  // The paper's Table 1 Task 1 as ONE declarative call:
  // visit(["Solid fill", "Blue", "Apply to All"]).
  auto solid = session_->ResolveTargetByNames({"Format Background Pane", "Solid fill"});
  ASSERT_TRUE(solid.ok()) << solid.status().ToString();
  auto blue = session_->ResolveTargetByNames({"Fill Color", "Blue"});
  ASSERT_TRUE(blue.ok()) << blue.status().ToString();
  auto apply = session_->ResolveTargetByNames({"Format Background Pane", "Apply to All"});
  ASSERT_TRUE(apply.ok()) << apply.status().ToString();

  std::string json = support::Format(
      R"([{"id": "%d"}, {"id": "%d", "entry_ref_id": [%s]}, {"id": "%d"}])", solid->id,
      blue->id,
      support::Join([&] {
        std::vector<std::string> refs;
        for (int r : blue->entry_ref_ids) {
          refs.push_back(std::to_string(r));
        }
        return refs;
      }(), ",").c_str(),
      apply->id);
  dmi::VisitReport report = session_->Visit(json);
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  for (const auto& slide : app_->slides()) {
    EXPECT_EQ(slide.background_color, "Blue");
    EXPECT_TRUE(slide.background_solid);
  }
}

TEST_F(PpointSession, NonLeafCommandsAreFiltered) {
  // The LLM (incorrectly) emits the navigation chain too: Design tab,
  // Format Background button — non-leaf nodes that must be filtered out.
  auto design = session_->ResolveTargetByNames({"Design"});
  auto fmt_bg = session_->ResolveTargetByNames({"Format Background"});
  auto solid = session_->ResolveTargetByNames({"Solid fill"});
  ASSERT_TRUE(design.ok());
  ASSERT_TRUE(fmt_bg.ok());
  ASSERT_TRUE(solid.ok());
  std::string json = support::Format(R"([{"id":"%d"},{"id":"%d"},{"id":"%d"}])", design->id,
                                     fmt_bg->id, solid->id);
  dmi::VisitReport report = session_->Visit(json);
  EXPECT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_EQ(report.filtered_count, 2u);
  EXPECT_TRUE(report.commands[0].filtered);
  EXPECT_TRUE(report.commands[1].filtered);
  EXPECT_FALSE(report.commands[2].filtered);
  EXPECT_TRUE(app_->slides()[0].background_solid);
}

TEST_F(PpointSession, ShortcutAfterFilteredCommandIsDropped) {
  auto design = session_->ResolveTargetByNames({"Design"});
  ASSERT_TRUE(design.ok());
  std::string json = support::Format(
      R"([{"id":"%d"},{"shortcut_key":"ENTER"}])", design->id);
  dmi::VisitReport report = session_->Visit(json);
  EXPECT_EQ(report.filtered_count, 2u);
  EXPECT_EQ(report.ui_actions, 0u);
}

TEST_F(PpointSession, SharedTargetWithoutRefGivesStructuredError) {
  auto blue = session_->ResolveTargetByNames({"Fill Color", "Blue"});
  ASSERT_TRUE(blue.ok());
  ASSERT_FALSE(blue->entry_ref_ids.empty());
  std::string json = support::Format(R"([{"id":"%d"}])", blue->id);
  dmi::VisitReport report = session_->Visit(json);
  EXPECT_FALSE(report.overall.ok());
  EXPECT_EQ(report.overall.code(), support::StatusCode::kFailedPrecondition);
  EXPECT_NE(report.overall.message().find("entry_ref_id"), std::string::npos);
}

TEST_F(PpointSession, FurtherQueryGlobalAndBranch) {
  dmi::VisitReport global = session_->Visit(R"([{"further_query": -1}])");
  ASSERT_TRUE(global.was_further_query);
  EXPECT_GT(global.further_query_text.size(), session_->catalog().CoreText().size());

  // Branch query on a menu host that the core elided content under.
  auto themes = session_->ResolveTargetByNames({"Themes Gallery"});
  ASSERT_TRUE(themes.ok());
  dmi::VisitReport branch =
      session_->Visit(support::Format(R"([{"further_query": "%d"}])", themes->id));
  ASSERT_TRUE(branch.was_further_query);
  EXPECT_NE(branch.further_query_text.find("Theme 42"), std::string::npos);
}

TEST_F(PpointSession, StateDeclarationScrollbar) {
  // The paper's Table 1 Task 2: set_scrollbar_pos(80%).
  session_->screen().Refresh();
  std::string label = session_->screen().LabelOf(*app_->slide_view_control());
  ASSERT_FALSE(label.empty());
  auto status = session_->interaction().SetScrollbarPos(label, -1.0, 80.0);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_DOUBLE_EQ(status->vertical_percent, 80.0);
  EXPECT_DOUBLE_EQ(app_->view_scroll_percent(), 80.0);
}

TEST_F(PpointSession, InteractionRejectsWrongPattern) {
  session_->screen().Refresh();
  // The status bar text has no ScrollPattern.
  gsim::Control* text = nullptr;
  for (const auto& lc : session_->screen().labeled()) {
    if (lc.control->Type() == uia::ControlType::kText) {
      text = lc.control;
      break;
    }
  }
  ASSERT_NE(text, nullptr);
  auto status =
      session_->interaction().SetScrollbarPos(session_->screen().LabelOf(*text), -1, 50);
  EXPECT_EQ(status.status().code(), support::StatusCode::kFailedPrecondition);
}

TEST_F(PpointSession, PromptContextContainsAllSections) {
  std::string prompt = session_->BuildPromptContext();
  EXPECT_NE(prompt.find("# DMI usage"), std::string::npos);
  EXPECT_NE(prompt.find("## Main tree"), std::string::npos);
  EXPECT_NE(prompt.find("# Current screen"), std::string::npos);
  EXPECT_GT(session_->PromptTokens(), 1000u);
}

TEST_F(PpointSession, PromptCacheByteIdenticalAndInvalidatesOnMutation) {
  // Cold build equals the cache-bypassing reference, and the streaming
  // segment-summed token count equals the reference tokenizer's piece count.
  const std::string first = session_->BuildPromptContext();
  EXPECT_EQ(first, session_->BuildPromptContextUncached());
  EXPECT_EQ(session_->PromptTokens(), textutil::TokenizePieces(first).size());
  // Warm turn: no UI mutation, the cached bytes come back unchanged.
  EXPECT_EQ(session_->BuildPromptContext(), first);
  // Mutating the UI bumps the generation; the next build must reflect the
  // new screen and again match the uncached reference.
  auto target = session_->ResolveTargetByNames({"Transition Gallery", "Transition 9"});
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  ASSERT_TRUE(
      session_->Visit(support::Format(R"([{"id":"%d"}])", target->id)).overall.ok());
  const std::string after = session_->BuildPromptContext();
  EXPECT_NE(after, first);
  EXPECT_EQ(after, session_->BuildPromptContextUncached());
  EXPECT_EQ(session_->PromptTokens(), textutil::TokenizePieces(after).size());
}

TEST_F(PpointSession, CountOnlyPromptTokensMatchesMaterializedPath) {
  // Bump the UI generation so the cache is cold, then take the count-only
  // path FIRST: it must produce the exact token count of the assembled
  // prompt without ever materializing the dynamic segment.
  gsim::Control* bold =
      static_cast<gsim::Control*>(uia::FindByName(app_->main_window().root(), "Bold"));
  ASSERT_NE(bold, nullptr);
  bold->set_toggled(!bold->toggled());
  const size_t count_only = session_->PromptTokens();
  EXPECT_EQ(session_->PromptCacheBytes(), 0u);  // nothing was materialized
  const std::string reference = session_->BuildPromptContextUncached();
  EXPECT_EQ(count_only, textutil::TokenizePieces(reference).size());
  // Materializing afterwards agrees byte- and count-wise, and the static
  // segment is served straight off the shared model.
  const dmi::PromptView view = session_->Prompt();
  EXPECT_EQ(view.tokens, count_only);
  EXPECT_EQ(view.Assemble(), reference);
  EXPECT_EQ(view.static_text, &session_->model().static_prompt());
  EXPECT_EQ(session_->PromptCacheBytes(), view.dynamic_text->size());
  bold->set_toggled(!bold->toggled());  // restore
}

TEST_F(PpointSession, PromptCacheInvalidatesOnStateSetters) {
  const std::string before = session_->BuildPromptContext();
  // A toggle flip reaches the prompt through the screen listing's [on]
  // markers; the setter must bump the generation so the cache rebuilds.
  gsim::Control* bold =
      static_cast<gsim::Control*>(uia::FindByName(app_->main_window().root(), "Bold"));
  ASSERT_NE(bold, nullptr);
  const uint64_t gen = app_->ui_generation();
  bold->set_toggled(!bold->toggled());
  EXPECT_GT(app_->ui_generation(), gen);
  const std::string after = session_->BuildPromptContext();
  EXPECT_NE(after, before);
  EXPECT_EQ(after, session_->BuildPromptContextUncached());
  // Setting the same value again is a no-op: no generation bump, cache holds.
  const uint64_t gen2 = app_->ui_generation();
  bold->set_toggled(bold->toggled());
  EXPECT_EQ(app_->ui_generation(), gen2);
  EXPECT_EQ(session_->BuildPromptContext(), after);
  bold->set_toggled(!bold->toggled());  // restore
}

TEST_F(PpointSession, ResolveTargetMatchesLegacyScan) {
  std::vector<std::vector<std::string>> chains = {
      {"Format Background Pane", "Solid fill"},
      {"Fill Color", "Blue"},
      {"Format Background Pane", "Apply to All"},
      {"Transition Gallery", "Transition 9"},
      {"Themes Gallery"},
      {"No Such Control Anywhere"},
  };
  // Broad sweep: every 17th forest node's name as a single-element chain.
  const topo::Forest& forest = session_->catalog().forest();
  std::vector<int> ids = forest.AllIds();
  for (size_t i = 0; i < ids.size(); i += 17) {
    const topo::TreeNode* n = forest.FindById(ids[i]);
    if (!n->is_reference) {
      chains.push_back({session_->catalog().dag().node(n->graph_index).name});
    }
  }
  ExpectResolveParity(*session_, chains);
}

TEST_F(PpointSession, VisitNavigatesAcrossTabs) {
  // Target on the Transitions tab while Home is active.
  auto target = session_->ResolveTargetByNames({"Transition Gallery", "Transition 9"});
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  dmi::VisitReport report =
      session_->Visit(support::Format(R"([{"id":"%d"}])", target->id));
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_EQ(app_->slides()[app_->current_slide()].transition, "Transition 9");
}

TEST_F(PpointSession, UnknownIdStructuredError) {
  dmi::VisitReport report = session_->Visit(R"([{"id": "999999"}])");
  EXPECT_FALSE(report.overall.ok());
  EXPECT_EQ(report.overall.code(), support::StatusCode::kNotFound);
}

// ----- Word session: F&R dialog + window-close priority ----------------------------

class WordSession : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::tie(app_, session_) = ModelWithScratch<apps::WordSim>(DefaultOptions());
  }
  static void TearDownTestSuite() {
    delete session_;
    delete app_;
    session_ = nullptr;
    app_ = nullptr;
  }
  void SetUp() override {
    app_->ResetToFreshState();
    session_->screen().Refresh();
  }

  static apps::WordSim* app_;
  static dmi::DmiSession* session_;
};

apps::WordSim* WordSession::app_ = nullptr;
dmi::DmiSession* WordSession::session_ = nullptr;

dmi::VisitCommand Access(const dmi::ResolvedTarget& target, const std::string& text = "") {
  dmi::VisitCommand cmd;
  cmd.kind = text.empty() ? dmi::VisitCommand::Kind::kAccess
                          : dmi::VisitCommand::Kind::kAccessInput;
  cmd.target_id = target.id;
  cmd.entry_ref_ids = target.entry_ref_ids;
  cmd.text = text;
  return cmd;
}

TEST_F(WordSession, AccessAndInputThenReplaceAll) {
  app_->SetSelection(0, 0);
  auto find_edit = session_->ResolveTargetByNames({"Find and Replace", "Find what"});
  ASSERT_TRUE(find_edit.ok()) << find_edit.status().ToString();
  auto repl_edit = session_->ResolveTargetByNames({"Find and Replace", "Replace with"});
  ASSERT_TRUE(repl_edit.ok());
  auto repl_all = session_->ResolveTargetByNames({"Find and Replace", "Replace All"});
  ASSERT_TRUE(repl_all.ok());
  dmi::VisitReport report = session_->VisitParsed({Access(*find_edit, "committee"),
                                                   Access(*repl_edit, "board"),
                                                   Access(*repl_all)});
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_GT(app_->replace_count(), 0);
}

TEST_F(WordSession, PathDependentColorViaDmi) {
  app_->SetSelection(1, 2);
  auto underline_red =
      session_->ResolveTargetByNames({"Underline Color", "Standard Red"});
  ASSERT_TRUE(underline_red.ok()) << underline_red.status().ToString();
  std::vector<std::string> refs;
  for (int r : underline_red->entry_ref_ids) {
    refs.push_back(std::to_string(r));
  }
  dmi::VisitReport report = session_->Visit(
      support::Format(R"([{"id":"%d","entry_ref_id":[%s]}])", underline_red->id,
                      support::Join(refs, ",").c_str()));
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_EQ(app_->paragraphs()[1].fmt.underline_color, "Standard Red");
  EXPECT_EQ(app_->paragraphs()[1].fmt.color, "Black");  // font color untouched
}

TEST_F(WordSession, ForeignDialogClosedWithOkPriority) {
  // Open the Symbol dialog manually, then visit a ribbon target: the
  // executor must close the dialog (OK > Close > Cancel) and proceed.
  gsim::Control* insert = static_cast<gsim::Control*>(
      uia::FindByName(app_->main_window().root(), "Insert"));
  ASSERT_TRUE(app_->Click(*insert).ok());
  gsim::Control* symbol = static_cast<gsim::Control*>(
      uia::FindByName(app_->main_window().root(), "Symbol"));
  ASSERT_TRUE(app_->Click(*symbol).ok());
  gsim::Control* more = static_cast<gsim::Control*>(
      uia::FindByName(app_->main_window().root(), "More Symbols..."));
  ASSERT_TRUE(app_->Click(*more).ok());
  ASSERT_EQ(app_->OpenWindows().size(), 2u);

  app_->SetSelection(0, 0);
  auto bold = session_->ResolveTargetByNames({"Font", "Bold"});
  ASSERT_TRUE(bold.ok());
  dmi::VisitReport report =
      session_->Visit(support::Format(R"([{"id":"%d"}])", bold->id));
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_EQ(app_->OpenWindows().size(), 1u);  // dialog got closed
  EXPECT_TRUE(app_->paragraphs()[0].fmt.bold);
  // The report should mention the close action (structured feedback).
  EXPECT_NE(report.Render().find("closed window"), std::string::npos);
}

TEST_F(WordSession, SelectParagraphsThenFormat) {
  session_->screen().Refresh();
  std::string doc_label = session_->screen().LabelOf(*app_->document_control());
  ASSERT_FALSE(doc_label.empty());
  auto sel = session_->interaction().SelectParagraphs(doc_label, 3, 5);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_NE(sel->selected_text.find("Paragraph 4"), std::string::npos);
  auto italic = session_->ResolveTargetByNames({"Font", "Italic"});
  ASSERT_TRUE(italic.ok());
  dmi::VisitReport report =
      session_->Visit(support::Format(R"([{"id":"%d"}])", italic->id));
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_TRUE(app_->paragraphs()[4].fmt.italic);
  EXPECT_FALSE(app_->paragraphs()[0].fmt.italic);
}

TEST_F(WordSession, GetTextsActiveOnDocument) {
  session_->screen().Refresh();
  std::string doc_label = session_->screen().LabelOf(*app_->document_control());
  auto text = session_->interaction().GetTextsActive(doc_label);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Paragraph 1"), std::string::npos);
}

TEST_F(WordSession, ResolveTargetMatchesLegacyScan) {
  std::vector<std::vector<std::string>> chains = {
      {"Find and Replace", "Find what"},
      {"Find and Replace", "Replace All"},
      {"Underline Color", "Standard Red"},
      {"Font", "Bold"},
      {"Bullets", "Bullet Style 3"},
      {"Entirely Missing Name"},
  };
  const topo::Forest& forest = session_->catalog().forest();
  std::vector<int> ids = forest.AllIds();
  for (size_t i = 0; i < ids.size(); i += 19) {
    const topo::TreeNode* n = forest.FindById(ids[i]);
    if (!n->is_reference) {
      chains.push_back({session_->catalog().dag().node(n->graph_index).name});
    }
  }
  ExpectResolveParity(*session_, chains);
}

TEST_F(WordSession, FuzzyMatcherSurvivesNameVariations) {
  // Enable name decoration online (the model was built without it).
  gsim::InstabilityConfig cfg;
  cfg.name_variation_rate = 1.0;  // every control decorated
  gsim::InstabilityInjector injector(cfg, 99);
  app_->SetInstability(&injector);
  app_->SetSelection(0, 0);
  auto bold = session_->ResolveTargetByNames({"Font", "Bold"});
  ASSERT_TRUE(bold.ok());
  const uint64_t fallbacks_before =
      support::MetricsRegistry::Global().Snapshot().CounterValue("visit.locate_fallback_walks");
  dmi::VisitReport report =
      session_->Visit(support::Format(R"([{"id":"%d"}])", bold->id));
  const uint64_t fallbacks_after =
      support::MetricsRegistry::Global().Snapshot().CounterValue("visit.locate_fallback_walks");
  app_->SetInstability(nullptr);
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_TRUE(app_->paragraphs()[0].fmt.bold);  // Bold was clicked
  // Decoration changes every on-screen id, so the exact probe misses and the
  // fuzzy fallback is what located Bold.
  EXPECT_GT(fallbacks_after, fallbacks_before);
}

TEST_F(WordSession, RetryHandlesSlowLoadingPopups) {
  gsim::InstabilityConfig cfg;
  cfg.slow_load_rate = 1.0;
  cfg.slow_load_ticks = 2;
  gsim::InstabilityInjector injector(cfg, 7);
  app_->SetInstability(&injector);
  auto item = session_->ResolveTargetByNames({"Bullets", "Bullet Style 3"});
  ASSERT_TRUE(item.ok()) << item.status().ToString();
  app_->SetSelection(0, 0);
  dmi::VisitReport report =
      session_->Visit(support::Format(R"([{"id":"%d"}])", item->id));
  app_->SetInstability(nullptr);
  ASSERT_TRUE(report.overall.ok()) << report.Render();
}

// ----- Excel session: grid + Name Box description ------------------------------------

class ExcelSession : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::tie(app_, session_) = ModelWithScratch<apps::ExcelSim>(DefaultOptions());
  }
  static void TearDownTestSuite() {
    delete session_;
    delete app_;
    session_ = nullptr;
    app_ = nullptr;
  }
  void SetUp() override {
    app_->ResetToFreshState();
    session_->screen().Refresh();
  }

  static apps::ExcelSim* app_;
  static dmi::DmiSession* session_;
};

apps::ExcelSim* ExcelSession::app_ = nullptr;
dmi::DmiSession* ExcelSession::session_ = nullptr;

TEST_F(ExcelSession, NameBoxJumpViaVisitWithShortcut) {
  auto name_box = session_->ResolveTargetByNames({"Name Box"});
  ASSERT_TRUE(name_box.ok());
  dmi::VisitReport report = session_->Visit(support::Format(
      R"([{"id":"%d","text":"C7"},{"shortcut_key":"ENTER"}])", name_box->id));
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_EQ(app_->active_row(), 6);
  EXPECT_EQ(app_->active_col(), 2);
}

TEST_F(ExcelSession, PassiveGetTextsCarriesCellData) {
  std::string payload = session_->interaction().GetTextsPassive();
  EXPECT_NE(payload.find("Region"), std::string::npos);
  EXPECT_NE(payload.find("empty"), std::string::npos);  // coalesced empties
}

TEST_F(ExcelSession, SelectControlsMultiCell) {
  session_->screen().Refresh();
  std::string a2 = session_->screen().LabelOf(*app_->CellControl(1, 0));
  std::string c4 = session_->screen().LabelOf(*app_->CellControl(3, 2));
  ASSERT_FALSE(a2.empty());
  ASSERT_FALSE(c4.empty());
  ASSERT_TRUE(session_->interaction().SelectControls({a2, c4}).ok());
  int r0, c0, r1, c1;
  ASSERT_TRUE(app_->SelectionBounds(&r0, &c0, &r1, &c1));
  EXPECT_EQ(r0, 1);
  EXPECT_EQ(c1, 2);
}

TEST_F(ExcelSession, SelectControlsConservativeOnBadTarget) {
  session_->screen().Refresh();
  std::string a2 = session_->screen().LabelOf(*app_->CellControl(1, 0));
  // The grid itself is not a SelectionItem: whole call must refuse.
  std::string grid = session_->screen().LabelOf(*app_->grid_control());
  auto status = session_->interaction().SelectControls({a2, grid});
  EXPECT_EQ(status.code(), support::StatusCode::kFailedPrecondition);
  int r0, c0, r1, c1;
  // Nothing was selected by the failed call beyond prior state.
  app_->ResetUiState();
  (void)r0;
  (void)c0;
  (void)r1;
  (void)c1;
}

TEST_F(ExcelSession, ScrollGridRevealsDeepRows) {
  session_->screen().Refresh();
  std::string grid_label = session_->screen().LabelOf(*app_->grid_control());
  auto status = session_->interaction().SetScrollbarPos(grid_label, -1, 90.0);
  ASSERT_TRUE(status.ok());
  session_->screen().Refresh();
  EXPECT_FALSE(app_->CellControl(120, 0)->IsOffscreen());
  // get_texts active on a deep cell after scroll.
  app_->SetCellValue(120, 0, "deep");
  std::string label = session_->screen().LabelOf(*app_->CellControl(120, 0));
  ASSERT_FALSE(label.empty());
  auto text = session_->interaction().GetTextsActive(label);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "deep");
}

TEST_F(ExcelSession, ResolveTargetMatchesLegacyScan) {
  std::vector<std::vector<std::string>> chains = {
      {"Sort and Filter"},
      {"Filter"},
      {"Name Box"},
      {"Unknown Excel Widget"},
  };
  const topo::Forest& forest = session_->catalog().forest();
  std::vector<int> ids = forest.AllIds();
  for (size_t i = 0; i < ids.size(); i += 23) {
    const topo::TreeNode* n = forest.FindById(ids[i]);
    if (!n->is_reference) {
      chains.push_back({session_->catalog().dag().node(n->graph_index).name});
    }
  }
  ExpectResolveParity(*session_, chains);
}

TEST_F(ExcelSession, ToggleStateDeclarativeIdempotent) {
  session_->screen().Refresh();
  // Find the Filter toggle via the Sort and Filter menu first (make visible).
  auto sort_menu = session_->ResolveTargetByNames({"Sort and Filter"});
  ASSERT_TRUE(sort_menu.ok());
  // Open the menu by clicking (navigation node: use direct app click).
  gsim::Control* menu = static_cast<gsim::Control*>(
      uia::FindByName(app_->main_window().root(), "Sort and Filter"));
  ASSERT_TRUE(app_->Click(*menu).ok());
  session_->screen().Refresh();
  gsim::Control* filter = static_cast<gsim::Control*>(
      uia::FindByName(app_->main_window().root(), "Filter"));
  ASSERT_NE(filter, nullptr);
  std::string label = session_->screen().LabelOf(*filter);
  ASSERT_FALSE(label.empty());
  ASSERT_TRUE(session_->interaction().SetToggleState(label, true).ok());
  EXPECT_TRUE(app_->filter_enabled());
  // Declarative: setting the same state again is a no-op, not a flip.
  ASSERT_TRUE(session_->interaction().SetToggleState(label, true).ok());
  EXPECT_TRUE(app_->filter_enabled());
  ASSERT_TRUE(session_->interaction().SetToggleState(label, false).ok());
  EXPECT_FALSE(app_->filter_enabled());
}

}  // namespace
