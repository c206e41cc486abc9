// The ScreenView over the application's capture and the Tick() it relies on:
// the cached observation against an uncached walk (tests/screen_reference.h)
// across a seeded walk of UI mutations, the allocation-free warm refresh, and
// the logical clock bumping the UI generation only when a reveal matures.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/gui/application.h"
#include "src/gui/instability.h"
#include "src/gui/screen.h"
#include "src/support/rng.h"
#include "src/text/tokens.h"
#include "tests/allocation_counter.h"
#include "tests/screen_reference.h"

namespace {

// The first word of a multi-word name ("Font" of "Font Color"), which binds
// to the control only through the decorated-name rule; "" for a one-word name.
std::string FirstWord(const std::string& name) {
  const size_t space = name.find(' ');
  return space == std::string::npos || space == 0 ? "" : name.substr(0, space);
}

// One ScreenView held across a seeded walk under a slow-load, name-decorating
// injector: every 8th step resets the UI, every 8th step offset by 5 presses
// ESC, every 4th step offset by 2 ticks the logical clock (a slow popup
// appears on the tick its reveal matures), and every other step clicks a
// random visible control. After each step, before its Refresh, the view must
// still show the last refresh: the reference entries of the previous step
// (controls, rects and hit-tests of that layout, and their listing with the
// names and states read now, whose token count it reports). After its
// Refresh it must agree with the reference walk: labels, controls, rects,
// the listing and its token count. The top-window name lookup is checked
// too, for visible names and their first words. A view that misses a
// generation bump serves a stale observation here, and one whose capture is
// refreshed behind it shows the new state too early.
template <typename App>
void ExpectViewTracksTheWalk() {
  constexpr int kSteps = 400;
  App app;
  gsim::InstabilityConfig config;
  config.slow_load_rate = 0.5;
  config.slow_load_ticks = 3;
  config.name_variation_rate = 0.3;
  gsim::InstabilityInjector injector(config, 20261019);
  app.SetInstability(&injector);
  gsim::ScreenView view(app);
  view.Refresh();
  support::Rng rng(7);
  support::Rng hit_rng(11);
  std::vector<screen_reference::Entry> last = screen_reference::LabeledControls(app);
  int maturing_ticks = 0;
  int stale_steps = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(app.name() + " step " + std::to_string(step));
    const uint64_t generation = app.ui_generation();
    if (step % 8 == 0) {
      app.ResetUiState();
    } else if (step % 8 == 5) {
      (void)app.PressKey("ESC");
    } else if (step % 4 == 2) {
      app.Tick();
      maturing_ticks += app.ui_generation() != generation ? 1 : 0;
    } else {
      const std::vector<screen_reference::Entry> visible =
          screen_reference::LabeledControls(app);
      ASSERT_FALSE(visible.empty());
      (void)app.Click(*visible[rng.NextBelow(visible.size())].control);
      if (app.in_external_state()) {
        app.ResetUiState();
      }
    }
    stale_steps += app.ui_generation() != generation ? 1 : 0;

    // Stale: the view still holds the last state's controls.
    EXPECT_EQ(view.ListingTokens(), textutil::CountTokens(view.RenderListing()));
    {
      const auto held = view.labeled();
      ASSERT_EQ(held.size(), last.size());
      for (size_t i = 0; i < last.size(); ++i) {
        ASSERT_EQ(held[i].control, last[i].control) << "held label " << last[i].label;
        const gsim::Rect rect = held[i].control->rect();
        ASSERT_EQ(rect.x, last[i].rect.x);
        ASSERT_EQ(rect.y, last[i].rect.y);
        ASSERT_EQ(rect.width, last[i].rect.width);
        ASSERT_EQ(rect.height, last[i].rect.height);
      }
      ASSERT_EQ(view.RenderListing(), screen_reference::RenderListing(last));
      for (int probe = 0; probe < 3; ++probe) {
        const gsim::Point center = last[hit_rng.NextBelow(last.size())].rect.Center();
        gsim::Control* topmost = nullptr;
        for (size_t i = last.size(); i-- > 0 && topmost == nullptr;) {
          if (last[i].rect.Contains(center)) {
            topmost = last[i].control;
          }
        }
        ASSERT_EQ(view.HitTest(center), topmost);
      }
    }

    view.Refresh();
    const std::vector<screen_reference::Entry> expected = screen_reference::LabeledControls(app);
    const auto labeled = view.labeled();
    ASSERT_EQ(labeled.size(), expected.size());
    ASSERT_EQ(view.VisibleCount(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(view.FindByLabel(expected[i].label), expected[i].control);
      ASSERT_EQ(labeled[i].control, expected[i].control) << "label " << expected[i].label;
      const gsim::Rect rect = labeled[i].control->rect();
      ASSERT_EQ(rect.x, expected[i].rect.x);
      ASSERT_EQ(rect.y, expected[i].rect.y);
      ASSERT_EQ(rect.width, expected[i].rect.width);
      ASSERT_EQ(rect.height, expected[i].rect.height);
    }
    const std::string listing = screen_reference::RenderListing(expected);
    ASSERT_EQ(view.RenderListing(), listing);
    ASSERT_EQ(view.RenderListing(9), screen_reference::RenderListing(expected, 9));
    ASSERT_EQ(view.ListingTokens(), textutil::CountTokens(listing));
    last = expected;

    for (int probe = 0; probe < 3; ++probe) {
      const std::string name =
          expected[rng.NextBelow(expected.size())].control->TrueName();
      for (const std::string& wanted : {name, FirstWord(name)}) {
        for (const bool decorated : {false, true}) {
          ASSERT_EQ(gsim::FindInTopWindow(app, wanted, decorated),
                    screen_reference::FindInTopWindow(app, wanted, decorated))
              << "'" << wanted << "' decorated " << decorated;
        }
      }
    }
  }
  // The walk exercised what it is meant to: many steps moved the generation
  // (a tick on which nothing matures does not), and some ticks brought a slow
  // popup on screen.
  EXPECT_GT(stale_steps, kSteps / 4);
  EXPECT_GT(maturing_ticks, 0);
}

TEST(ScreenViewTest, TracksTheWalkAcrossClicksWord) { ExpectViewTracksTheWalk<apps::WordSim>(); }

TEST(ScreenViewTest, TracksTheWalkAcrossClicksExcel) {
  ExpectViewTracksTheWalk<apps::ExcelSim>();
}

TEST(ScreenViewTest, TracksTheWalkAcrossClicksPpoint) {
  ExpectViewTracksTheWalk<apps::PpointSim>();
}

// Once a refresh has sized the capture's buffers, re-walking an unchanged UI
// state reuses them — the entry list keeps its length and no label is
// stored — and the listing's token count renders into a kept buffer, so the
// refresh, the count and an exact top-window lookup allocate nothing.
template <typename App>
void ExpectWarmRefreshAllocatesNothing() {
  App app;
  gsim::ScreenView view(app);
  view.Refresh();
  const size_t visible = view.VisibleCount();
  const size_t tokens = view.ListingTokens();
  ASSERT_GT(visible, 0u);
  gsim::Control* last = view.labeled().back().control;
  const std::string name = last->TrueName();
  // A rebuild lays the controls out again: a cleared rect comes back.
  last->SetRect(gsim::Rect{});
  app.BumpUiGeneration();
  size_t allocations = 0;
  size_t rebuilt_tokens = 0;
  gsim::Control* found = nullptr;
  {
    AllocationCounter counter;
    view.Refresh();
    rebuilt_tokens = view.ListingTokens();
    found = gsim::FindInTopWindow(app, name, /*accept_decorated=*/false);
    allocations = counter.count();
  }
  EXPECT_EQ(view.VisibleCount(), visible);
  EXPECT_EQ(rebuilt_tokens, tokens);
  EXPECT_FALSE(last->rect().Empty());
  EXPECT_NE(found, nullptr);
  EXPECT_EQ(allocations, 0u) << "refreshing " << visible << " controls";
}

TEST(ScreenViewTest, WarmRefreshAllocatesNothingWord) {
  ExpectWarmRefreshAllocatesNothing<apps::WordSim>();
}

TEST(ScreenViewTest, WarmRefreshAllocatesNothingExcel) {
  ExpectWarmRefreshAllocatesNothing<apps::ExcelSim>();
}

TEST(ScreenViewTest, WarmRefreshAllocatesNothingPpoint) {
  ExpectWarmRefreshAllocatesNothing<apps::PpointSim>();
}

// A refresh at an unchanged generation is a no-op: it lays nothing out.
TEST(ScreenViewTest, RefreshAtAnUnchangedGenerationIsANoOp) {
  apps::WordSim app;
  gsim::ScreenView view(app);
  view.Refresh();
  gsim::Control* first = view.labeled().front().control;
  first->SetRect(gsim::Rect{});
  view.Refresh();
  EXPECT_TRUE(first->rect().Empty());
  app.BumpUiGeneration();
  view.Refresh();
  EXPECT_FALSE(first->rect().Empty());
}

// The logical clock bumps the UI generation only on the tick where a pending
// reveal matures, once however many mature together, and the caches held
// across the ticks then show the popup.
TEST(TickTest, BumpsTheGenerationOnlyWhenARevealMatures) {
  apps::WordSim app;
  gsim::ScreenView view(app);
  gsim::Capture& capture = app.capture();
  view.Refresh();
  (void)capture.Visible();

  // No reveal pending: a tick changes nothing.
  uint64_t generation = app.ui_generation();
  app.Tick();
  EXPECT_EQ(app.ui_generation(), generation);

  // Open a transient popup, then make it and its first item load slowly.
  gsim::Control* host = nullptr;
  for (const gsim::CaptureEntry& entry : view.labeled()) {
    gsim::Control* c = entry.control;
    if (c->click_effect() == gsim::ClickEffect::kRevealPopup && c->popup() != nullptr &&
        !c->popup_persistent() && !c->popup()->StaticChildren().empty()) {
      host = c;
      break;
    }
  }
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(app.Click(*host).ok());
  gsim::Control* popup = host->popup();
  gsim::Control* item = popup->StaticChildren().front();
  const uint64_t reveal = app.current_tick() + 3;
  app.SetRevealTick(*popup, reveal);
  app.SetRevealTick(*item, reveal);

  auto capture_shows = [&](const gsim::Control* control) {
    for (const gsim::CaptureEntry& entry : capture.Visible()) {
      if (entry.control == control) {
        return true;
      }
    }
    return false;
  };
  view.Refresh();
  EXPECT_EQ(view.LabelOf(*item), "");
  EXPECT_FALSE(capture_shows(item));

  // Two ticks before the reveal: no bump, and the capture stays warm.
  for (int t = 0; t < 2; ++t) {
    generation = app.ui_generation();
    app.Tick();
    EXPECT_EQ(app.ui_generation(), generation);
    bool rebuilt = true;
    (void)capture.Visible(&rebuilt);
    EXPECT_FALSE(rebuilt);
    EXPECT_TRUE(item->IsOffscreen());
  }

  // The maturing tick: one bump for both reveals, and the popup appears.
  generation = app.ui_generation();
  app.Tick();
  ASSERT_EQ(app.current_tick(), reveal);
  EXPECT_EQ(app.ui_generation(), generation + 1);
  EXPECT_FALSE(item->IsOffscreen());
  view.Refresh();
  EXPECT_NE(view.LabelOf(*popup), "");
  EXPECT_NE(view.LabelOf(*item), "");
  EXPECT_TRUE(capture_shows(item));

  // Past every reveal: ticks change nothing again.
  generation = app.ui_generation();
  app.Tick();
  EXPECT_EQ(app.ui_generation(), generation);
}

}  // namespace
