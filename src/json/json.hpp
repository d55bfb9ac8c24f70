#pragma once

// The repo's one JSON module: a tagged value type, a compact serializer and
// a recursive-descent parser. Every JSON file the repo writes — the result
// cache, the sweep exports, ndc-lint's JSON and SARIF, the Chrome trace,
// the decision JSONL and the bench_substrate report — is built as a Value
// and written by Dump, so there is one escaper and one number format.
// Covers what those emitters need (objects, arrays, strings, integers,
// doubles, bools, null); deliberately not a general-purpose library.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ndc::json {

struct Value {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool b = false;
  std::uint64_t u64 = 0;  ///< kInt payload
  double num = 0.0;       ///< kDouble payload
  std::string str;        ///< kString payload
  std::map<std::string, Value> obj;
  std::vector<Value> arr;

  static Value Null() { return {}; }
  static Value Bool(bool v);
  static Value Int(std::uint64_t v);
  /// An integer that may be negative (a -1 "none" location): kInt when
  /// `v >= 0`, else a kDouble, which Dump writes without a fraction ("-1")
  /// and Parse reads back as a kDouble (exact for |v| < 2^53).
  static Value Signed(std::int64_t v);
  static Value Double(double v);
  static Value Str(std::string v);
  static Value Object(std::map<std::string, Value> members = {});
  static Value Array(std::vector<Value> items = {});

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  /// Numeric coercion (kInt or kDouble; `fallback` otherwise).
  std::uint64_t AsU64(std::uint64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
};

/// Compact single-line serialization (object keys in map order, so the
/// output is deterministic). A string's body has `"` and `\` escaped,
/// named escapes for \b \f \n \r \t, and \u00xx for every other control
/// byte. Bytes >= 0x80 pass through raw: the document is UTF-8, and
/// escaping them one by one would re-encode each byte of a multi-byte rune
/// as its own Latin-1 code point.
std::string Dump(const Value& v);

/// Parses one JSON document. Returns false (and sets `err` when non-null)
/// on malformed input or trailing garbage. A number must be
/// -?digits(.digits)?([eE][+-]?digits)? and fit its type (a non-negative
/// integer in 64 unsigned bits, anything else as a double short of
/// overflow); a \u escape must name a code point below 0x80, since Dump
/// never writes a larger one.
bool Parse(const std::string& text, Value* out, std::string* err = nullptr);

}  // namespace ndc::json
