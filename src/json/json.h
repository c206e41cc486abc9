// From-scratch JSON value model, parser and writer.
//
// The visit interface (paper §3.4/§4.3) receives a JSON array of commands from
// the LLM; DMI also serializes navigation graphs and structured error feedback
// as JSON. This module is self-contained (no third-party dependency).
#ifndef SRC_JSON_JSON_H_
#define SRC_JSON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace jsonv {

class Value;
using Array = std::vector<Value>;
// std::map keeps object keys ordered -> deterministic serialization.
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

// A JSON value. Copyable; arrays/objects own their children.
class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(int i) : type_(Type::kInt), int_(i) {}
  Value(int64_t i) : type_(Type::kInt), int_(i) {}
  Value(double d) : type_(Type::kDouble), double_(d) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  // A double converts toward zero, saturating outside int64's range (a wire
  // request may say 1e300); NaN reads 0.
  int64_t as_int() const;
  double as_double() const { return is_int() ? static_cast<double>(int_) : double_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  Array& as_array() { return array_; }
  const Object& as_object() const { return object_; }
  Object& as_object() { return object_; }

  // Object member access; returns nullptr if not an object or key absent.
  const Value* Find(std::string_view key) const;

  // Convenience typed getters with defaults.
  std::string GetString(std::string_view key, std::string fallback = "") const;
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  // Compact serialization (no whitespace).
  std::string Dump() const;
  // Pretty serialization with 2-space indentation.
  std::string DumpPretty() const;

  bool operator==(const Value& other) const;

 private:
  void DumpTo(std::string& out, int indent, bool pretty) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Parses `text` as a single JSON document. Trailing non-whitespace is an error.
support::Result<Value> Parse(std::string_view text);

// Escapes a string for inclusion in JSON output (adds surrounding quotes).
std::string EscapeString(std::string_view raw);

}  // namespace jsonv

#endif  // SRC_JSON_JSON_H_
