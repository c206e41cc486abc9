#include "src/ripper/identifier.h"

#include <vector>

#include "src/uia/control_type.h"

namespace ripper {

ParsedControlId ParseControlId(const std::string& control_id) {
  ParsedControlId parsed;
  std::vector<size_t> seps;
  for (size_t pos = control_id.find('|'); pos != std::string::npos;
       pos = control_id.find('|', pos + 1)) {
    seps.push_back(pos);
  }
  if (seps.empty()) {
    parsed.primary_id = control_id;
    return parsed;
  }
  if (seps.size() == 1) {
    parsed.primary_id = control_id.substr(0, seps[0]);
    parsed.control_type = control_id.substr(seps[0] + 1);
    return parsed;
  }
  // Control names may themselves contain '|' (they are user data), so with
  // more than two separators the field boundaries are ambiguous. The type
  // field, however, is always one of the known UIA control type names and
  // never contains '|': pick the *rightmost* consecutive separator pair whose
  // middle text is a valid type name (rightmost, because a '|' inside the
  // primary id shifts the true pair right, whereas a spurious type-looking
  // token inside the primary would sit to its left). If no pair validates,
  // the '|'s most plausibly belong to the primary id: fall back to the last
  // two separators.
  size_t lo = seps[seps.size() - 2];
  size_t hi = seps[seps.size() - 1];
  for (size_t k = seps.size() - 1; k-- > 0;) {
    const std::string middle = control_id.substr(seps[k] + 1, seps[k + 1] - seps[k] - 1);
    if (uia::ControlTypeFromName(middle).has_value()) {
      lo = seps[k];
      hi = seps[k + 1];
      break;
    }
  }
  parsed.primary_id = control_id.substr(0, lo);
  parsed.control_type = control_id.substr(lo + 1, hi - lo - 1);
  parsed.ancestor_path = control_id.substr(hi + 1);
  return parsed;
}

}  // namespace ripper
