// Approximate token accounting.
//
// The paper reports context overhead in tokens under OpenAI's o200k_base
// encoding (≈15 tokens per serialized control, §5.4). We do not ship a BPE
// vocabulary; instead we approximate with a word/punctuation segmenter whose
// statistics track o200k_base closely on UI-description text: common short
// words are one token, long words cost ceil(len/4) tokens, digits group in
// threes, punctuation is one token each.
#ifndef SRC_TEXT_TOKENS_H_
#define SRC_TEXT_TOKENS_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace textutil {

// Approximate token count of `text`. Single streaming pass, no allocation.
size_t CountTokens(std::string_view text);

// Streaming segment counting: adds CountTokens(segment) to `*total` and
// returns the segment's own count. Segment sums equal the count of the
// concatenation whenever the split points fall on whitespace (the segmenter
// resets its run state there) — which is how prompt assembly splits its
// static and dynamic segments (DESIGN.md §9).
size_t CountTokensAppend(std::string_view segment, size_t* total);

// Truncates `text` to at most `max_tokens` approximate tokens, appending an
// ellipsis marker when content was dropped.
std::string TruncateToTokens(std::string_view text, size_t max_tokens);

}  // namespace textutil

#endif  // SRC_TEXT_TOKENS_H_
