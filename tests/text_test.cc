#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/text/similarity.h"
#include "src/text/tokens.h"

namespace {

// ----- tokens ------------------------------------------------------------------

TEST(TokensTest, EmptyIsZero) { EXPECT_EQ(textutil::CountTokens(""), 0u); }

TEST(TokensTest, ShortWordsOneTokenEach) {
  EXPECT_EQ(textutil::CountTokens("bold"), 1u);
  EXPECT_EQ(textutil::CountTokens("font color"), 2u);
}

TEST(TokensTest, LongWordsSplit) {
  // "internationalization" = 20 chars -> 5 chunks of 4.
  EXPECT_EQ(textutil::CountTokens("internationalization"), 5u);
}

TEST(TokensTest, DigitsGroupInThrees) {
  EXPECT_EQ(textutil::CountTokens("123456"), 2u);
  EXPECT_EQ(textutil::CountTokens("1234567"), 3u);
}

TEST(TokensTest, PunctuationCounts) {
  EXPECT_EQ(textutil::CountTokens("a,b"), 3u);
  EXPECT_EQ(textutil::CountTokens("(x)"), 3u);
}

TEST(TokensTest, RepeatedSeparatorRunsCompress) {
  EXPECT_EQ(textutil::CountTokens("----"), 1u);
  EXPECT_EQ(textutil::CountTokens("--------"), 2u);
}

TEST(TokensTest, WhitespaceIsFree) {
  EXPECT_EQ(textutil::CountTokens("  a   b  "), textutil::CountTokens("a b"));
}

TEST(TokensTest, ControlDescriptionAveragesNearPaperEstimate) {
  // Paper §5.4: ~15 tokens per serialized control. A representative
  // serialized control line should land in a plausible band around that.
  const std::string line =
      "Font Color(SplitButton)(Opens the color palette for text color)_214"
      "[Blue_87,Dark Red_88]";
  size_t tokens = textutil::CountTokens(line);
  EXPECT_GE(tokens, 10u);
  EXPECT_LE(tokens, 40u);
}

TEST(TokensTest, StreamingCountMatchesPieces) {
  // CountTokens is a single streaming pass; TokenizePieces is the reference
  // implementation. They must agree on every input shape.
  const char* samples[] = {
      "",
      "bold",
      "Font Color(SplitButton)(Opens the color palette)_214[Blue_87,Dark Red_88]",
      "# Navigation topology\n## Main tree\n[Root](Window)_1[File(MenuItem)_2]",
      "  leading   and   trailing   whitespace  ",
      "digits 123456789 mixed with words and --- separator runs....",
      "internationalization antidisestablishmentarianism a b c",
      "@ref->S0_42,@ref->S1_77\n## Entry map (ref_id->subtree:root_id)\n42->S0:9\n",
  };
  for (const char* s : samples) {
    EXPECT_EQ(textutil::CountTokens(s), textutil::TokenizePieces(s).size()) << s;
  }
}

TEST(TokensTest, CountTokensAppendSumsSegmentsAtWhitespace) {
  // Segment sums equal the concatenated count when split points fall on
  // whitespace — the contract prompt assembly relies on (static segments end
  // with '\n').
  const std::string head = "# DMI usage\nPrefer DMI. visit([...]) accesses ids.\n";
  const std::string mid = "# Navigation topology\n## Main tree\nRoot(Window)_1\n";
  const std::string tail = "\n# Current screen\nA1 Bold (Button)\nA2 Italic (Button)\n";
  size_t total = 0;
  size_t h = textutil::CountTokensAppend(head, &total);
  size_t m = textutil::CountTokensAppend(mid, &total);
  size_t t = textutil::CountTokensAppend(tail, &total);
  EXPECT_EQ(h, textutil::CountTokens(head));
  EXPECT_EQ(m, textutil::CountTokens(mid));
  EXPECT_EQ(t, textutil::CountTokens(tail));
  EXPECT_EQ(total, h + m + t);
  EXPECT_EQ(total, textutil::CountTokens(head + mid + tail));
}

TEST(TokensTest, TruncateToTokensNoCutWhenUnderBudget) {
  EXPECT_EQ(textutil::TruncateToTokens("a b c", 10), "a b c");
}

TEST(TokensTest, TruncateToTokensCutsAtBoundary) {
  std::string out = textutil::TruncateToTokens("alpha beta gamma delta", 2);
  EXPECT_EQ(out, std::string("alpha beta") + "…");
}

TEST(TokensTest, TruncateToZero) {
  EXPECT_EQ(textutil::TruncateToTokens("anything", 0), "");
}

TEST(TokensTest, TruncatedTextTokenCountWithinBudget) {
  const std::string text =
      "The quick brown fox jumps over the lazy dog repeatedly and often";
  for (size_t budget : {1u, 3u, 5u, 8u}) {
    std::string cut = textutil::TruncateToTokens(text, budget);
    // Remove the ellipsis marker before recounting.
    if (cut.size() >= 3 && cut.substr(cut.size() - 3) == "…") {
      cut = cut.substr(0, cut.size() - 3);
    }
    EXPECT_LE(textutil::CountTokens(cut), budget);
  }
}

// ----- similarity ----------------------------------------------------------------

TEST(SimilarityTest, EditDistanceBasics) {
  EXPECT_EQ(textutil::EditDistance("", ""), 0u);
  EXPECT_EQ(textutil::EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(textutil::EditDistance("abc", "abd"), 1u);
  EXPECT_EQ(textutil::EditDistance("abc", ""), 3u);
  EXPECT_EQ(textutil::EditDistance("kitten", "sitting"), 3u);
}

TEST(SimilarityTest, EditDistanceSymmetric) {
  EXPECT_EQ(textutil::EditDistance("Bold", "Bold (Ctrl+B)"),
            textutil::EditDistance("Bold (Ctrl+B)", "Bold"));
}

TEST(SimilarityTest, NameSimilarityIdentical) {
  EXPECT_DOUBLE_EQ(textutil::NameSimilarity("Apply to All", "Apply to All"), 1.0);
  EXPECT_DOUBLE_EQ(textutil::NameSimilarity("", ""), 1.0);
}

TEST(SimilarityTest, NameSimilarityBounds) {
  double s = textutil::NameSimilarity("Font Color", "Underline Color");
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(SimilarityTest, TokenSetIgnoresDecoration) {
  // The exact hazard the fuzzy matcher must survive: decorated names.
  EXPECT_GT(textutil::TokenSetRatio("Bold", "Bold (Ctrl+B)"), 0.3);
  EXPECT_DOUBLE_EQ(textutil::TokenSetRatio("Apply to All", "all apply TO"), 1.0);
}

TEST(SimilarityTest, TokenSetDisjoint) {
  EXPECT_DOUBLE_EQ(textutil::TokenSetRatio("alpha", "beta"), 0.0);
}

TEST(SimilarityTest, FuzzyScoreAcceptsTypicalVariations) {
  // Every decoration variant the instability injector produces must stay
  // above the matcher threshold (0.72) against the true name.
  const std::string base = "Apply to All";
  for (const std::string& variant :
       {base + "...", base + " ", base + " (Ctrl+K)", base + " control"}) {
    EXPECT_GT(textutil::FuzzyScore(base, variant), 0.72) << variant;
  }
}

TEST(SimilarityTest, FuzzyScoreRejectsDifferentControls) {
  EXPECT_LT(textutil::FuzzyScore("Font Color", "Page Color"), 0.72);
  EXPECT_LT(textutil::FuzzyScore("OK", "Cancel"), 0.5);
}

// ----- similarity kernel parity ----------------------------------------------------

// The reference the kernel must reproduce bit for bit: a straightforward
// implementation over std::set word sets, std::vector DP rows and lowercased
// copies.
namespace oracle {

std::string ToLowerCopy(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::set<std::string> WordSet(std::string_view text) {
  std::set<std::string> words;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!current.empty()) {
      words.insert(current);
      current.clear();
    }
  }
  if (!current.empty()) {
    words.insert(current);
  }
  return words;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) {
    std::swap(a, b);
  }
  const size_t m = b.size();
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> cur(m + 1);
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
  const auto wa = WordSet(a);
  const auto wb = WordSet(b);
  if (wa.empty() && wb.empty()) {
    return 1.0;
  }
  if (wa.empty() || wb.empty()) {
    return 0.0;
  }
  size_t inter = 0;
  for (const auto& w : wa) {
    if (wb.count(w) > 0) {
      ++inter;
    }
  }
  const size_t uni = wa.size() + wb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

bool IsWholeWordPrefix(std::string_view prefix, std::string_view full) {
  const std::string lo = ToLowerCopy(prefix);
  const std::string hi = ToLowerCopy(full);
  if (lo.empty() || hi.size() <= lo.size() || hi.compare(0, lo.size(), lo) != 0) {
    return false;
  }
  return std::isalnum(static_cast<unsigned char>(hi[lo.size()])) == 0;
}

double FuzzyScore(std::string_view a, std::string_view b) {
  double score = std::max(NameSimilarity(a, b), TokenSetRatio(a, b));
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

}  // namespace oracle

// Seeded generator of name-like string pairs: near matches, decorations,
// reorderings, empty and non-ASCII inputs, and long strings (past 80
// characters) between short ones, so the kernel's reused DP rows grow and are
// then reused at shorter lengths.
class PairGenerator {
 public:
  explicit PairGenerator(uint64_t seed) : rng_(seed) {}

  std::pair<std::string, std::string> Next(size_t i) {
    switch (i % 7) {
      case 0:
        return {Phrase(4), Phrase(4)};
      case 1: {  // the injector's decorations, either side modeled
        std::string base = Phrase(3);
        std::string decorated = Decorate(base);
        return Below(2) == 0 ? std::pair{base, decorated} : std::pair{decorated, base};
      }
      case 2: {  // near miss: a few character edits, case flips, repeats
        std::string base = Phrase(4);
        return {base, Mutate(base)};
      }
      case 3:  // empty on one or both sides
        return Below(3) == 0 ? std::pair<std::string, std::string>{"", ""}
                             : std::pair<std::string, std::string>{"", Phrase(3)};
      case 4: {  // bytes >= 0x80 (UTF-8 text and raw high bytes)
        std::string base = HighBytes();
        return {base, Below(2) == 0 ? Mutate(base) : HighBytes()};
      }
      case 5: {  // ancestor paths
        std::string base = Path();
        return {base, Below(2) == 0 ? Mutate(base) : Path()};
      }
      default: {  // both long
        std::string base = Long();
        return {base, Below(2) == 0 ? Mutate(base) : Long()};
      }
    }
  }

 private:
  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }

  std::string Word() {
    static const char* kWords[] = {"Bold",   "bold",  "BOLD",   "Font",  "font",  "Color",
                                   "color",  "Apply", "to",     "All",   "all",   "Page",
                                   "Layout", "Home",  "Insert", "Table", "Cell",  "A1",
                                   "x2",     "OK",    "Cancel", "Under", "line",  "Underline",
                                   "Style",  "3",     "Ctrl",   "B",     "Theme", "Colors"};
    return kWords[Below(sizeof(kWords) / sizeof(kWords[0]))];
  }

  std::string Separator() {
    static const char* kSeparators[] = {" ", " ", "  ", "/", "-", ", ", "(", ")", ".", "|", "_"};
    return kSeparators[Below(sizeof(kSeparators) / sizeof(kSeparators[0]))];
  }

  std::string Phrase(size_t max_words) {
    const size_t words = 1 + Below(max_words);
    std::string out;
    std::string previous;
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) {
        out += Separator();
      }
      // Repeat the previous word now and then: word sets de-duplicate.
      std::string word = (w > 0 && Below(4) == 0) ? previous : Word();
      out += word;
      previous = word;
    }
    return out;
  }

  std::string Decorate(const std::string& base) {
    switch (Below(4)) {
      case 0:
        return base + "...";
      case 1:
        return base + " ";
      case 2:
        return base + " (Ctrl+" + static_cast<char>('A' + Below(26)) + ")";
      default:
        return base + " control";
    }
  }

  std::string Mutate(std::string s) {
    const size_t edits = 1 + Below(3);
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = s.empty() ? 0 : Below(s.size());
      switch (Below(4)) {
        case 0:
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<char>(32 + Below(96)));
          break;
        case 1:
          if (!s.empty()) {
            s.erase(pos, 1);
          }
          break;
        case 2:
          if (!s.empty()) {
            s[pos] = static_cast<char>(std::isupper(static_cast<unsigned char>(s[pos]))
                                           ? std::tolower(static_cast<unsigned char>(s[pos]))
                                           : std::toupper(static_cast<unsigned char>(s[pos])));
          }
          break;
        default:
          s += Separator() + Word();
          break;
      }
    }
    return s;
  }

  std::string HighBytes() {
    static const char* kUtf8[] = {"\xC3\xA9", "\xD0\x96", "\xE2\x80\xA6", "\xC3\x89"};
    std::string out;
    const size_t pieces = 1 + Below(5);
    for (size_t p = 0; p < pieces; ++p) {
      switch (Below(3)) {
        case 0:
          out += kUtf8[Below(4)];
          break;
        case 1:
          out += static_cast<char>(0x80 + Below(128));
          break;
        default:
          out += Word();
          break;
      }
      if (Below(2) == 0) {
        out += Separator();
      }
    }
    return out;
  }

  std::string Path() {
    const size_t depth = 1 + Below(5);
    std::string out;
    for (size_t d = 0; d < depth; ++d) {
      if (d > 0) {
        out += '/';
      }
      out += Below(6) == 0 ? std::string("[Unnamed]") : Phrase(2);
    }
    return out;
  }

  std::string Long() {
    std::string out;
    while (out.size() <= 80) {
      out += Phrase(4);
      out += Separator();
    }
    return out;
  }

  std::mt19937_64 rng_;
};

TEST(SimilarityTest, KernelMatchesReferenceBitForBit) {
  constexpr size_t kPairs = 14000;
  PairGenerator gen(20261017);
  for (size_t i = 0; i < kPairs; ++i) {
    const auto [a, b] = gen.Next(i);
    SCOPED_TRACE("pair " + std::to_string(i) + ": '" + a + "' vs '" + b + "'");
    EXPECT_EQ(textutil::EditDistance(a, b), oracle::EditDistance(a, b));
    EXPECT_EQ(textutil::NameSimilarity(a, b), oracle::NameSimilarity(a, b));
    EXPECT_EQ(textutil::TokenSetRatio(a, b), oracle::TokenSetRatio(a, b));
    EXPECT_EQ(textutil::FuzzyScore(a, b), oracle::FuzzyScore(a, b));
    EXPECT_EQ(textutil::DecorationAwareScore(a, b), oracle::DecorationAwareScore(a, b));
    EXPECT_EQ(textutil::DecorationAwareScore(b, a), oracle::DecorationAwareScore(b, a));
    if (HasFailure()) {
      return;  // one reported pair is enough to debug from
    }
  }
}

}  // namespace
