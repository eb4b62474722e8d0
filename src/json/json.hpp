#pragma once

// The program's one JSON codec: a tagged value type, a compact serializer,
// a strict recursive-descent parser, and the string-escaping primitive every
// JSON writer uses (result cache, exporters, fault schedules, SARIF and
// diagnostics reports, Chrome traces). A leaf module: it links nothing, so
// any layer may use it.
//
// Covers the subset the program reads and writes (objects, arrays, strings,
// unsigned integers, doubles, bools, null) — deliberately not a
// general-purpose library. The parser rejects rather than guesses: a number
// token must convert in full (no "1-2", "7e", "+"), integers must fit in
// uint64, object keys must be unique, and \u escapes are limited to the
// ASCII range the serializer emits.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ndc::json {

struct Value {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool b = false;
  std::uint64_t u64 = 0;  ///< kInt payload (non-negative integer tokens)
  double num = 0.0;       ///< kDouble payload (fractions, exponents, negatives)
  std::string str;        ///< kString payload
  std::map<std::string, Value> obj;
  std::vector<Value> arr;

  static Value Null() { return {}; }
  static Value Bool(bool v);
  static Value Int(std::uint64_t v);
  static Value Double(double v);
  static Value Str(std::string v);
  static Value Object();
  static Value Array();

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  /// Numeric coercion (kInt or kDouble; `fallback` otherwise).
  std::uint64_t AsU64(std::uint64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
};

/// Appends `s` to `out` as the body of a JSON string (no surrounding
/// quotes). Quote and backslash are escaped; control bytes get the named
/// escapes \b \f \n \r \t where JSON defines one and \u00xx otherwise.
/// Bytes >= 0x80 pass through untouched: documents are UTF-8, and escaping
/// them as \u00xx would re-encode each byte of a multi-byte rune as a
/// separate Latin-1 code point.
void AppendEscaped(std::string& out, std::string_view s);

/// AppendEscaped into a fresh string.
std::string Escape(std::string_view s);

/// Compact single-line serialization (object keys in map order, so the
/// output is deterministic).
std::string Dump(const Value& v);

/// Parses one JSON document. Returns false (and sets `err` when non-null)
/// on malformed input or trailing garbage.
bool Parse(const std::string& text, Value* out, std::string* err = nullptr);

}  // namespace ndc::json
