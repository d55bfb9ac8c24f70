#include "json/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace ndc::json {

Value Value::Bool(bool v) {
  Value x;
  x.kind = Kind::kBool;
  x.b = v;
  return x;
}

Value Value::Int(std::uint64_t v) {
  Value x;
  x.kind = Kind::kInt;
  x.u64 = v;
  return x;
}

Value Value::Signed(std::int64_t v) {
  return v >= 0 ? Int(static_cast<std::uint64_t>(v)) : Double(static_cast<double>(v));
}

Value Value::Double(double v) {
  Value x;
  x.kind = Kind::kDouble;
  x.num = v;
  return x;
}

Value Value::Str(std::string v) {
  Value x;
  x.kind = Kind::kString;
  x.str = std::move(v);
  return x;
}

Value Value::Object(std::map<std::string, Value> members) {
  Value x;
  x.kind = Kind::kObject;
  x.obj = std::move(members);
  return x;
}

Value Value::Array(std::vector<Value> items) {
  Value x;
  x.kind = Kind::kArray;
  x.arr = std::move(items);
  return x;
}

const Value* Value::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::uint64_t Value::AsU64(std::uint64_t fallback) const {
  if (kind == Kind::kInt) return u64;
  if (kind == Kind::kDouble && num >= 0) return static_cast<std::uint64_t>(num);
  return fallback;
}

double Value::AsDouble(double fallback) const {
  if (kind == Kind::kDouble) return num;
  if (kind == Kind::kInt) return static_cast<double>(u64);
  return fallback;
}

namespace {

void EscapeTo(const std::string& s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Widen through unsigned char: a signed char would print \uffxx.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void DumpTo(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::kNull: out += "null"; return;
    case Value::Kind::kBool: out += v.b ? "true" : "false"; return;
    case Value::Kind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v.u64));
      out += buf;
      return;
    }
    case Value::Kind::kDouble: {
      if (!std::isfinite(v.num)) {  // JSON has no inf/nan; degrade to null
        out += "null";
        return;
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.num);
      out += buf;
      return;
    }
    case Value::Kind::kString:
      out += '"';
      EscapeTo(v.str, out);
      out += '"';
      return;
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, val] : v.obj) {
        if (!first) out += ',';
        first = false;
        out += '"';
        EscapeTo(k, out);
        out += "\":";
        DumpTo(val, out);
      }
      out += '}';
      return;
    }
    case Value::Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.arr.size(); ++i) {
        if (i) out += ',';
        DumpTo(v.arr[i], out);
      }
      out += ']';
      return;
    }
  }
}

}  // namespace

std::string Dump(const Value& v) {
  std::string out;
  DumpTo(v, out);
  return out;
}

namespace {

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
          *out = Value::Bool(true);
          return true;
        }
        return Fail("bad literal");
      case 'f':
        if (s_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          *out = Value::Bool(false);
          return true;
        }
        return Fail("bad literal");
      case 'n':
        if (s_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          *out = Value::Null();
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

}  // namespace

bool Parse(const std::string& text, Value* out, std::string* err) {
  return Parser(text, err).Run(out);
}

}  // namespace ndc::json
