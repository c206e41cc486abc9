#include "src/text/tokens.h"

#include <cctype>

namespace textutil {
namespace {

bool IsWordChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '\'';
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// One segmenter run: the offset just past its last byte, and its token cost.
struct Run {
  size_t end = 0;
  size_t tokens = 0;
};

// The run starting at the non-space byte `begin`. A word run costs one token
// up to 6 chars (common short words) and ceil(len/4) beyond (~4-char BPE
// chunks); a digit run ceil(len/3) (o200k groups digits in threes); any other
// byte starts a run of that one repeated separator (e.g. "----"), costing
// ceil(len/4), so a lone symbol is one token.
Run ScanRun(std::string_view text, size_t begin) {
  const size_t n = text.size();
  const char c = text[begin];
  size_t end = begin + 1;
  if (IsWordChar(c)) {
    while (end < n && IsWordChar(text[end])) {
      ++end;
    }
    const size_t len = end - begin;
    return Run{end, len <= 6 ? 1 : (len + 3) / 4};
  }
  if (IsDigit(c)) {
    while (end < n && IsDigit(text[end])) {
      ++end;
    }
    return Run{end, (end - begin + 2) / 3};
  }
  while (end < n && text[end] == c) {
    ++end;
  }
  return Run{end, (end - begin + 3) / 4};
}

// Feeds every run of `text` to `visit` in order; whitespace between runs is
// free (it fuses into the following word in BPE). Stops at the first run
// `visit` refuses and returns false, or returns true once every run was taken.
template <typename Visit>
bool ForEachRun(std::string_view text, Visit&& visit) {
  size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    const Run run = ScanRun(text, i);
    if (!visit(run)) {
      return false;
    }
    i = run.end;
  }
  return true;
}

}  // namespace

size_t CountTokens(std::string_view text) {
  size_t total = 0;
  return CountTokensAppend(text, &total);
}

size_t CountTokensAppend(std::string_view segment, size_t* total) {
  size_t count = 0;
  ForEachRun(segment, [&count](const Run& run) {
    count += run.tokens;
    return true;
  });
  *total += count;
  return count;
}

std::string TruncateToTokens(std::string_view text, size_t max_tokens) {
  if (max_tokens == 0) {
    return "";
  }
  size_t used = 0;
  size_t end_offset = 0;
  const bool whole = ForEachRun(text, [&](const Run& run) {
    if (used + run.tokens > max_tokens) {
      return false;
    }
    used += run.tokens;
    end_offset = run.end;
    return true;
  });
  if (whole) {
    return std::string(text);
  }
  return std::string(text.substr(0, end_offset)) + "…";
}

}  // namespace textutil
