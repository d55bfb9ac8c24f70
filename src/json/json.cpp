#include "json/json.hpp"

#include <cmath>
#include <cstdio>

namespace ndc::json {

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

}  // namespace ndc::json
