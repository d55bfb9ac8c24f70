#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace ndc::verify {

/// Severity of a finding. Errors indicate programs the compiler must never
/// emit (unsafe access movements, malformed IR);
/// warnings indicate suspicious-but-tolerated constructs (boundary
/// subscripts the code generator skips, potential cross-core races);
/// notes are informational.
enum class Severity { kNote, kWarning, kError };

const char* SeverityName(Severity s);

/// Stable diagnostic codes. V1xx = IR structural validation,
/// L2xx = legality audit, R3xx = parallel-loop race detection.
enum class Code : int {
  // --- IR validator ---
  kBadArrayRef = 101,             ///< operand references an invalid array id
  kShapeMismatch = 102,           ///< F/f shape vs array rank or nest depth
  kBadOperandKind = 103,          ///< inconsistent operand kind/fields
  kSubscriptNeverInBounds = 104,  ///< access can never resolve in bounds
  kSubscriptOutOfBounds = 105,    ///< out of bounds at loop extremes (skipped)
  kBadLoopBound = 106,            ///< bound depends on a non-outer iterator
  kLeadExceedsMax = 108,          ///< |lead| above the configured max_lead
  kLocNotEnabled = 109,           ///< planned loc outside the control register
  kMissingIndexData = 110,        ///< indirect access without index contents
  kEmptyNest = 111,               ///< nest with no loops or no statements
  kDuplicateStmtId = 112,         ///< two statements in one body share an id
  kIndexValueOutOfRange = 113,    ///< index-array entry outside target array
  kOffloadNeedsTwoLoads = 114,    ///< NDC annotation on a non use-use chain
  // --- legality auditor ---
  kUnsafeLead = 203,              ///< lead crosses a conflicting write
  kLeadOnUnknownArray = 204,      ///< lead on an array with unknown deps
  // --- race detector ---
  kParallelCarriedDependence = 301,  ///< dependence carried by the parallel loop
  kParallelUnknownDependence = 302,  ///< unanalyzable dependence in parallel nest
};

const char* CodeName(Code c);

/// Prefixed stable identifier, e.g. "V101", "L201", "R301".
std::string CodeId(Code c);

/// One finding, with enough location to pinpoint the offending construct:
/// nest index, statement body index / static id, and array id (each -1 or 0
/// when not applicable).
struct Diagnostic {
  Severity severity = Severity::kError;
  Code code = Code::kBadArrayRef;
  std::string message;
  int nest = -1;
  int stmt = -1;                ///< body index within the nest
  std::uint32_t stmt_id = 0;    ///< static statement id (0 = none)
  int array = -1;

  std::string ToString() const;
};

/// Collected diagnostics of one verification run.
struct Report {
  std::vector<Diagnostic> diags;

  void Add(Severity sev, Code code, std::string message, int nest = -1, int stmt = -1,
           std::uint32_t stmt_id = 0, int array = -1);

  int Count(Severity s) const;
  int ErrorCount() const { return Count(Severity::kError); }
  int WarningCount() const { return Count(Severity::kWarning); }

  /// Merges another report's findings into this one.
  void Merge(const Report& other);

  /// Stable deterministic order: (nest, stmt, code, array, message). Run
  /// order of the passes stops mattering, so reports are byte-comparable.
  void Sort();

  /// Human-readable rendering, one finding per line.
  std::string ToText() const;
  /// Machine-readable rendering: an array of finding objects (severity,
  /// code, name, nest, stmt, stmt_id, array, message).
  json::Value ToJson() const;
};

}  // namespace ndc::verify
