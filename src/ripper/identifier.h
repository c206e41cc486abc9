// Control identifiers (paper §4.1).
//
// UIA gives no globally unique id, so nodes in the UI Navigation Graph are
// labeled with an XPath-like identifier:
//     primary_id|control_type|ancestor_path
// primary_id is the AutomationId, falling back to the control name, falling
// back to "[Unnamed]". Index-based addressing is deliberately avoided —
// dynamic menus shift indices unpredictably. gsim::Capture writes every
// identifier, once per UI generation and only when asked for
// (src/gui/capture.h); this header parses them.
#ifndef SRC_RIPPER_IDENTIFIER_H_
#define SRC_RIPPER_IDENTIFIER_H_

#include <string>

namespace ripper {

struct ParsedControlId {
  std::string primary_id;
  std::string control_type;
  std::string ancestor_path;
};

// Splits an identifier back into its three fields. Robust to '|' inside
// control names: among the separator pairs, the pair delimiting a valid UIA
// control type name (rightmost such pair) wins; without one, the last two
// separators are used. Degenerate one-field / two-field forms parse as
// primary-only / primary+type.
ParsedControlId ParseControlId(const std::string& control_id);

}  // namespace ripper

#endif  // SRC_RIPPER_IDENTIFIER_H_
