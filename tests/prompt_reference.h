// The reference DMI prompt: DmiSession::Prompt()'s text assembled from
// scratch, bypassing every cache. The tests assert the cached segments
// byte-identical against it. It reads only the session's public parts: the
// usage hint, the catalog's core text, the screen listing and the passive
// data payload.
#ifndef TESTS_PROMPT_REFERENCE_H_
#define TESTS_PROMPT_REFERENCE_H_

#include <string>

#include "src/dmi/compiled_model.h"
#include "src/dmi/session.h"

namespace prompt_reference {

inline std::string BuildPromptContextUncached(dmi::DmiSession& session) {
  session.screen().Refresh();
  std::string out = dmi::CompiledModel::UsageHint();
  out += session.catalog().CoreText();
  out += "\n# Current screen\n";
  out += session.screen().RenderListing();
  const std::string payload = session.interaction().GetTextsPassive();
  if (!payload.empty()) {
    out += "# Data items\n";
    out += payload;
  }
  return out;
}

}  // namespace prompt_reference

#endif  // TESTS_PROMPT_REFERENCE_H_
