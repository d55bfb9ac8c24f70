#include "verify/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace ndc::verify {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* CodeName(Code c) {
  switch (c) {
    case Code::kBadArrayRef: return "bad-array-ref";
    case Code::kShapeMismatch: return "shape-mismatch";
    case Code::kBadOperandKind: return "bad-operand-kind";
    case Code::kSubscriptNeverInBounds: return "subscript-never-in-bounds";
    case Code::kSubscriptOutOfBounds: return "subscript-out-of-bounds";
    case Code::kBadLoopBound: return "bad-loop-bound";
    case Code::kBadTransform: return "bad-transform";
    case Code::kLeadExceedsMax: return "lead-exceeds-max";
    case Code::kLocNotEnabled: return "loc-not-enabled";
    case Code::kMissingIndexData: return "missing-index-data";
    case Code::kEmptyNest: return "empty-nest";
    case Code::kDuplicateStmtId: return "duplicate-stmt-id";
    case Code::kIndexValueOutOfRange: return "index-value-out-of-range";
    case Code::kOffloadNeedsTwoLoads: return "offload-needs-two-loads";
    case Code::kIllegalTransform: return "illegal-transform";
    case Code::kTransformWithUnknownDeps: return "transform-with-unknown-deps";
    case Code::kUnsafeLead: return "unsafe-lead";
    case Code::kLeadOnUnknownArray: return "lead-on-unknown-array";
    case Code::kParallelCarriedDependence: return "parallel-carried-dependence";
    case Code::kParallelUnknownDependence: return "parallel-unknown-dependence";
  }
  return "?";
}

std::string CodeId(Code c) {
  // Code prefix mirrors the pass that owns the range: V1xx structural
  // (validator), L2xx legality (auditor), R3xx races (detector).
  int num = static_cast<int>(c);
  char prefix = num >= 300 ? 'R' : num >= 200 ? 'L' : 'V';
  return prefix + std::to_string(num);
}

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << SeverityName(severity) << " [" << CodeId(code) << " " << CodeName(code) << "]";
  if (nest >= 0) os << " nest " << nest;
  if (stmt >= 0) os << " stmt " << stmt;
  if (stmt_id != 0) os << " (S" << stmt_id << ")";
  if (array >= 0) os << " array " << array;
  os << ": " << message;
  return os.str();
}

void Report::Add(Severity sev, Code code, std::string message, int nest, int stmt,
                 std::uint32_t stmt_id, int array) {
  Diagnostic d;
  d.severity = sev;
  d.code = code;
  d.message = std::move(message);
  d.nest = nest;
  d.stmt = stmt;
  d.stmt_id = stmt_id;
  d.array = array;
  diags.push_back(std::move(d));
}

int Report::Count(Severity s) const {
  int n = 0;
  for (const Diagnostic& d : diags) n += d.severity == s;
  return n;
}

void Report::Merge(const Report& other) {
  diags.insert(diags.end(), other.diags.begin(), other.diags.end());
}

void Report::Sort() {
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.nest != b.nest) return a.nest < b.nest;
                     if (a.stmt != b.stmt) return a.stmt < b.stmt;
                     if (a.code != b.code) return static_cast<int>(a.code) < static_cast<int>(b.code);
                     if (a.array != b.array) return a.array < b.array;
                     return a.message < b.message;
                   });
}

std::string Report::ToText() const {
  std::ostringstream os;
  for (const Diagnostic& d : diags) os << d.ToString() << "\n";
  os << ErrorCount() << " error(s), " << WarningCount() << " warning(s), "
     << Count(Severity::kNote) << " note(s)\n";
  return os.str();
}

// Control characters get named escapes where JSON defines one and \u00xx
// otherwise (the snprintf argument must be widened through unsigned char: a
// raw signed char would sign-extend and print \uffxx). Bytes >= 0x80 —
// UTF-8 continuation and lead bytes — pass through untouched: the document
// is UTF-8, and escaping them as \u00xx would re-encode each byte as a
// separate Latin-1 code point, corrupting every multi-byte rune on the
// first decode.
void JsonEscape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i != 0) os << ",";
    os << "\n  {\"severity\": \"" << SeverityName(d.severity) << "\", \"code\": "
       << static_cast<int>(d.code) << ", \"name\": \"" << CodeName(d.code)
       << "\", \"nest\": " << d.nest << ", \"stmt\": " << d.stmt
       << ", \"stmt_id\": " << d.stmt_id << ", \"array\": " << d.array
       << ", \"message\": \"";
    JsonEscape(os, d.message);
    os << "\"}";
  }
  os << (diags.empty() ? "]" : "\n]");
  return os.str();
}

}  // namespace ndc::verify
