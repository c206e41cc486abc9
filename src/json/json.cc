#include "src/json/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/support/strings.h"

namespace jsonv {

const Value* Value::Find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  auto it = object_.find(std::string(key));
  if (it == object_.end()) {
    return nullptr;
  }
  return &it->second;
}

std::string Value::GetString(std::string_view key, std::string fallback) const {
  const Value* v = Find(key);
  if (v != nullptr && v->is_string()) {
    return v->as_string();
  }
  return fallback;
}

int64_t Value::as_int() const {
  if (!is_double()) {
    return int_;
  }
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (double_ >= kTwoTo63) {
    return std::numeric_limits<int64_t>::max();
  }
  if (double_ < -kTwoTo63) {
    return std::numeric_limits<int64_t>::min();
  }
  return std::isnan(double_) ? 0 : static_cast<int64_t>(double_);
}

int64_t Value::GetInt(std::string_view key, int64_t fallback) const {
  const Value* v = Find(key);
  if (v != nullptr && v->is_number()) {
    return v->as_int();
  }
  return fallback;
}

double Value::GetDouble(std::string_view key, double fallback) const {
  const Value* v = Find(key);
  if (v != nullptr && v->is_number()) {
    return v->as_double();
  }
  return fallback;
}

bool Value::GetBool(std::string_view key, bool fallback) const {
  const Value* v = Find(key);
  if (v != nullptr && v->is_bool()) {
    return v->as_bool();
  }
  return fallback;
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) {
    // Numeric cross-type comparison (1 == 1.0).
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kDouble:
      return double_ == other.double_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

std::string EscapeString(std::string_view raw) {
  std::string out = "\"";
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += support::Format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void Value::DumpTo(std::string& out, int indent, bool pretty) const {
  auto newline = [&](int level) {
    if (pretty) {
      out += '\n';
      out.append(static_cast<size_t>(level) * 2, ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(int_);
      break;
    case Type::kDouble: {
      if (std::isfinite(double_) && double_ == static_cast<double>(static_cast<int64_t>(double_)) &&
          std::abs(double_) < 1e15) {
        out += std::to_string(static_cast<int64_t>(double_));
      } else if (std::isfinite(double_)) {
        std::string num = support::Format("%.17g", double_);
        // Trim to shortest round-trippable-ish representation.
        double best = std::strtod(num.c_str(), nullptr);
        for (int prec = 1; prec <= 16; ++prec) {
          std::string candidate = support::Format("%.*g", prec, double_);
          if (std::strtod(candidate.c_str(), nullptr) == best) {
            num = candidate;
            break;
          }
        }
        out += num;
      } else {
        out += "null";  // JSON has no NaN/Inf.
      }
      break;
    }
    case Type::kString:
      out += EscapeString(string_);
      break;
    case Type::kArray: {
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        newline(indent + 1);
        array_[i].DumpTo(out, indent + 1, pretty);
      }
      if (!array_.empty()) {
        newline(indent);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) {
          out += ',';
        }
        first = false;
        newline(indent + 1);
        out += EscapeString(key);
        out += pretty ? ": " : ":";
        value.DumpTo(out, indent + 1, pretty);
      }
      if (!object_.empty()) {
        newline(indent);
      }
      out += '}';
      break;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(out, 0, /*pretty=*/false);
  return out;
}

std::string Value::DumpPretty() const {
  std::string out;
  DumpTo(out, 0, /*pretty=*/true);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  support::Result<Value> ParseDocument() {
    SkipWhitespace();
    auto value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  support::Status Error(const std::string& message) const {
    return support::InvalidArgumentError(
        support::Format("JSON parse error at offset %zu: %s", pos_, message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  support::Result<Value> ParseValue() {
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        auto s = ParseString();
        if (!s.ok()) {
          return s.status();
        }
        return Value(std::move(*s));
      }
      case 't':
        return ParseLiteral("true", Value(true));
      case 'f':
        return ParseLiteral("false", Value(false));
      case 'n':
        return ParseLiteral("null", Value(nullptr));
      default:
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
          return ParseNumber();
        }
        return Error(support::Format("unexpected character '%c'", c));
    }
  }

  support::Result<Value> ParseLiteral(std::string_view literal, Value value) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return value;
    }
    return Error("invalid literal");
  }

  support::Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") {
      return Error("invalid number");
    }
    if (is_double) {
      return Value(std::strtod(token.c_str(), nullptr));
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno == ERANGE) {
      return Value(std::strtod(token.c_str(), nullptr));
    }
    return Value(static_cast<int64_t>(v));
  }

  support::Result<std::string> ParseString() {
    if (!Consume('"')) {
      return Error("expected '\"'");
    }
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return Error("unterminated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs not combined;
          // rare in our control names).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  support::Result<Value> ParseArray() {
    Consume('[');
    if (++depth_ > kMaxDepth) {
      return Error("nesting too deep");
    }
    Array items;
    SkipWhitespace();
    if (Consume(']')) {
      --depth_;
      return Value(std::move(items));
    }
    while (true) {
      SkipWhitespace();
      auto item = ParseValue();
      if (!item.ok()) {
        return item;
      }
      items.push_back(std::move(*item));
      SkipWhitespace();
      if (Consume(']')) {
        --depth_;
        return Value(std::move(items));
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  support::Result<Value> ParseObject() {
    Consume('{');
    if (++depth_ > kMaxDepth) {
      return Error("nesting too deep");
    }
    Object members;
    SkipWhitespace();
    if (Consume('}')) {
      --depth_;
      return Value(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' in object");
      }
      SkipWhitespace();
      auto value = ParseValue();
      if (!value.ok()) {
        return value;
      }
      members[std::move(*key)] = std::move(*value);
      SkipWhitespace();
      if (Consume('}')) {
        --depth_;
        return Value(std::move(members));
      }
      if (!Consume(',')) {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  // Nested containers allowed, counted on container entry: 256 parse, 257 do
  // not, whatever the innermost container holds.
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

support::Result<Value> Parse(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

}  // namespace jsonv
