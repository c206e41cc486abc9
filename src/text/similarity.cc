#include "src/text/similarity.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace textutil {
namespace {

char ToLower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

// The distinct lowercase alphanumeric words of a text, sorted: views into one
// lowercased copy of the text. The visit executor scores candidates from
// concurrent sessions, so each thread reuses its own buffers.
struct WordSet {
  std::string lower;
  std::vector<std::string_view> words;

  void Assign(std::string_view text) {
    lower.assign(text);
    words.clear();
    size_t start = 0;
    bool in_word = false;
    for (size_t i = 0; i < text.size(); ++i) {
      lower[i] = ToLower(text[i]);
      const bool alnum = std::isalnum(static_cast<unsigned char>(text[i])) != 0;
      if (alnum && !in_word) {
        start = i;
      } else if (!alnum && in_word) {
        words.emplace_back(lower.data() + start, i - start);
      }
      in_word = alnum;
    }
    if (in_word) {
      words.emplace_back(lower.data() + start, text.size() - start);
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
  }
};

}  // namespace

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) {
    std::swap(a, b);
  }
  const size_t m = b.size();
  // Two rows over the shorter string in one per-thread buffer (concurrent
  // sessions score at the same time); every cell is written before it is
  // read, so the buffer only grows and is never cleared.
  thread_local std::vector<size_t> rows;
  if (rows.size() < 2 * (m + 1)) {
    rows.resize(2 * (m + 1));
  }
  size_t* prev = rows.data();
  size_t* cur = prev + m + 1;
  for (size_t j = 0; j <= m; ++j) {
    prev[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double NameSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) {
    return 1.0;
  }
  const size_t longest = std::max(a.size(), b.size());
  const size_t dist = EditDistance(a, b);
  return 1.0 - static_cast<double>(dist) / static_cast<double>(longest);
}

double TokenSetRatio(std::string_view a, std::string_view b) {
  thread_local WordSet wa;
  thread_local WordSet wb;
  wa.Assign(a);
  wb.Assign(b);
  if (wa.words.empty() && wb.words.empty()) {
    return 1.0;
  }
  if (wa.words.empty() || wb.words.empty()) {
    return 0.0;
  }
  // Both lists are sorted and distinct: one merge pass counts the overlap.
  size_t inter = 0;
  for (size_t i = 0, j = 0; i < wa.words.size() && j < wb.words.size();) {
    const int order = wa.words[i].compare(wb.words[j]);
    if (order < 0) {
      ++i;
    } else if (order > 0) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  const size_t uni = wa.words.size() + wb.words.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

// True if `prefix` is a whole-word prefix of `full` (case-insensitive).
bool IsWholeWordPrefix(std::string_view prefix, std::string_view full) {
  if (prefix.empty() || full.size() <= prefix.size()) {
    return false;
  }
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (ToLower(prefix[i]) != ToLower(full[i])) {
      return false;
    }
  }
  return std::isalnum(static_cast<unsigned char>(ToLower(full[prefix.size()]))) == 0;
}

}  // namespace

double FuzzyScore(std::string_view a, std::string_view b) {
  double score = std::max(NameSimilarity(a, b), TokenSetRatio(a, b));
  // Decoration rule: UI name variations are nearly always suffix decorations
  // ("Bold" -> "Bold (Ctrl+B)", "Bold...", "Bold ").
  if (IsWholeWordPrefix(a, b) || IsWholeWordPrefix(b, a)) {
    score = std::max(score, 0.93);
  }
  return score;
}

double DecorationAwareScore(std::string_view model_name, std::string_view screen_name) {
  double score = std::max(NameSimilarity(model_name, screen_name),
                          TokenSetRatio(model_name, screen_name));
  if (IsWholeWordPrefix(model_name, screen_name)) {
    score = std::max(score, 0.93);
  }
  return score;
}

}  // namespace textutil
