#include "verify/sarif.hpp"

#include <cstdint>
#include <map>

namespace ndc::verify {
namespace {

const char* SarifLevel(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "none";
}

}  // namespace

std::string ToSarif(const Report& report, const std::string& tool_name,
                    const std::string& tool_version) {
  using json::Value;
  // Rules: one per distinct code, ordered by numeric code so the table is
  // deterministic regardless of finding order.
  std::map<int, Code> codes;
  for (const Diagnostic& d : report.diags) codes[static_cast<int>(d.code)] = d.code;
  std::map<int, std::uint64_t> rule_index;
  Value rules = Value::Array();
  for (const auto& [num, code] : codes) {
    rule_index[num] = rules.arr.size();
    rules.arr.push_back(Value::Object(
        {{"id", Value::Str(CodeId(code))},
         {"name", Value::Str(CodeName(code))},
         {"shortDescription", Value::Object({{"text", Value::Str(CodeName(code))}})}}));
  }

  Value results = Value::Array();
  for (const Diagnostic& d : report.diags) {
    std::string loc = "nest" + std::to_string(d.nest);
    if (d.stmt >= 0) loc += "/stmt" + std::to_string(d.stmt);
    Value logical = Value::Object(
        {{"fullyQualifiedName", Value::Str(loc)}, {"kind", Value::Str("function")}});
    results.arr.push_back(Value::Object(
        {{"ruleId", Value::Str(CodeId(d.code))},
         {"ruleIndex", Value::Int(rule_index[static_cast<int>(d.code)])},
         {"level", Value::Str(SarifLevel(d.severity))},
         {"message", Value::Object({{"text", Value::Str(d.message)}})},
         {"locations", Value::Array({Value::Object(
                           {{"logicalLocations", Value::Array({std::move(logical)})}})})},
         {"properties", Value::Object({{"nest", Value::Signed(d.nest)},
                                       {"stmt", Value::Signed(d.stmt)},
                                       {"array", Value::Signed(d.array)}})}}));
  }

  Value driver = Value::Object({{"name", Value::Str(tool_name)},
                                {"version", Value::Str(tool_version)},
                                {"informationUri", Value::Str("https://example.invalid/ndc")},
                                {"rules", std::move(rules)}});
  Value run = Value::Object({{"tool", Value::Object({{"driver", std::move(driver)}})},
                             {"results", std::move(results)}});
  Value log = Value::Object({{"$schema", Value::Str("https://json.schemastore.org/sarif-2.1.0.json")},
                             {"version", Value::Str("2.1.0")},
                             {"runs", Value::Array({std::move(run)})}});
  return json::Dump(log) + "\n";
}

}  // namespace ndc::verify
