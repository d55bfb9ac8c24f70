#include "verify/diagnostics.hpp"

#include <algorithm>
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
    case Code::kLeadExceedsMax: return "lead-exceeds-max";
    case Code::kLocNotEnabled: return "loc-not-enabled";
    case Code::kMissingIndexData: return "missing-index-data";
    case Code::kEmptyNest: return "empty-nest";
    case Code::kDuplicateStmtId: return "duplicate-stmt-id";
    case Code::kIndexValueOutOfRange: return "index-value-out-of-range";
    case Code::kOffloadNeedsTwoLoads: return "offload-needs-two-loads";
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

json::Value Report::ToJson() const {
  using json::Value;
  Value out = Value::Array();
  for (const Diagnostic& d : diags) {
    out.arr.push_back(Value::Object({{"severity", Value::Str(SeverityName(d.severity))},
                                     {"code", Value::Int(static_cast<std::uint64_t>(d.code))},
                                     {"name", Value::Str(CodeName(d.code))},
                                     {"nest", Value::Signed(d.nest)},
                                     {"stmt", Value::Signed(d.stmt)},
                                     {"stmt_id", Value::Int(d.stmt_id)},
                                     {"array", Value::Signed(d.array)},
                                     {"message", Value::Str(d.message)}}));
  }
  return out;
}

}  // namespace ndc::verify
