#pragma once

// The JSON reader the tests check the repo's JSON output with: a
// recursive-descent parser for what json::Dump writes, and the lookups and
// numeric coercions that read the parsed values. No program reads JSON, so
// the reader lives here rather than in src/json.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "json/json.hpp"

namespace ndc::json {

/// A boolean value; no program writes one.
inline Value Bool(bool b) {
  Value v;
  v.kind = Value::Kind::kBool;
  v.b = b;
  return v;
}

inline bool IsObject(const Value& v) { return v.kind == Value::Kind::kObject; }
inline bool IsArray(const Value& v) { return v.kind == Value::Kind::kArray; }

/// Object member lookup; nullptr when absent or not an object.
inline const Value* Find(const Value& v, const std::string& key) {
  if (!IsObject(v)) return nullptr;
  auto it = v.obj.find(key);
  return it == v.obj.end() ? nullptr : &it->second;
}

/// Numeric coercion (kInt or kDouble; `fallback` otherwise).
inline std::uint64_t AsU64(const Value& v, std::uint64_t fallback = 0) {
  if (v.kind == Value::Kind::kInt) return v.u64;
  if (v.kind == Value::Kind::kDouble && v.num >= 0) return static_cast<std::uint64_t>(v.num);
  return fallback;
}

inline double AsDouble(const Value& v, double fallback = 0.0) {
  if (v.kind == Value::Kind::kDouble) return v.num;
  if (v.kind == Value::Kind::kInt) return static_cast<double>(v.u64);
  return fallback;
}

namespace detail {

class Parser {
 public:
  Parser(const std::string& text, std::string* err) : s_(text), err_(err) {}

  bool Run(Value* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != s_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (err_) {
      std::ostringstream os;
      os << what << " at offset " << pos_;
      *err_ = os.str();
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(Value* out) {
    if (pos_ >= s_.size()) return Fail("unexpected end of input");
    char c = s_[pos_];
    switch (c) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"': {
        out->kind = Value::Kind::kString;
        return ParseString(&out->str);
      }
      case 't':
        if (s_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          *out = Bool(true);
          return true;
        }
        return Fail("bad literal");
      case 'f':
        if (s_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          *out = Bool(false);
          return true;
        }
        return Fail("bad literal");
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          *out = Value();
          return true;
        }
        return Fail("bad literal");
      default: return ParseNumber(out);
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return Fail("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // Dump writes \u00xx only for control bytes and passes
            // UTF-8 through raw; a larger code point would need UTF-8
            // encoding, which this reader does not do.
            if (code > 0x7F) return Fail("\\u escape above \\u007f");
            *out += static_cast<char>(code);
            break;
          }
          default: return Fail("bad escape");
        }
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  // One or more decimal digits.
  bool Digits() {
    std::size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }

  // JSON grammar: -?digits(.digits)?([eE][+-]?digits)?. A non-negative
  // integer is kInt; a sign, fraction or exponent makes it kDouble.
  bool ParseNumber(Value* out) {
    std::size_t start = pos_;
    bool is_double = Consume('-');
    if (!Digits()) return Fail("expected value");
    if (Consume('.')) {
      is_double = true;
      if (!Digits()) return Fail("bad number");
    }
    if (Consume('e') || Consume('E')) {
      is_double = true;
      if (!Consume('+')) Consume('-');
      if (!Digits()) return Fail("bad number");
    }
    // The scan above admits only what strtod/strtoull consume whole.
    std::string tok = s_.substr(start, pos_ - start);
    if (is_double) {
      // Underflow to a subnormal or zero is a value; overflow is not.
      *out = Value::Double(std::strtod(tok.c_str(), nullptr));
      if (std::isinf(out->num)) return Fail("number out of range");
    } else {
      errno = 0;
      *out = Value::Int(std::strtoull(tok.c_str(), nullptr, 10));
      if (errno == ERANGE) return Fail("number out of range");
    }
    return true;
  }

  bool ParseObject(Value* out) {
    if (!Consume('{')) return Fail("expected object");
    *out = Value::Object();
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      Value val;
      if (!ParseValue(&val)) return false;
      out->obj.emplace(std::move(key), std::move(val));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(Value* out) {
    if (!Consume('[')) return Fail("expected array");
    *out = Value::Array();
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      Value val;
      if (!ParseValue(&val)) return false;
      out->arr.push_back(std::move(val));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  const std::string& s_;
  std::string* err_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses one JSON document. Returns false (and sets `err` when non-null)
/// on malformed input or trailing garbage. A number must be
/// -?digits(.digits)?([eE][+-]?digits)? and fit its type (a non-negative
/// integer in 64 unsigned bits, anything else as a double short of
/// overflow); a \u escape must name a code point below 0x80, since Dump
/// never writes a larger one.
inline bool Parse(const std::string& text, Value* out, std::string* err = nullptr) {
  return detail::Parser(text, err).Run(out);
}

}  // namespace ndc::json
