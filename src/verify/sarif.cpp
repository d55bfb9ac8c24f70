#include "verify/sarif.hpp"

#include <map>
#include <sstream>

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
  // Rules: one per distinct code, ordered by numeric code so the table is
  // deterministic regardless of finding order.
  std::map<int, Code> codes;
  for (const Diagnostic& d : report.diags) codes[static_cast<int>(d.code)] = d.code;
  std::map<int, int> rule_index;
  int next = 0;
  for (const auto& [num, code] : codes) rule_index[num] = next++;

  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"";
  JsonEscape(os, tool_name);
  os << "\",\n"
     << "          \"version\": \"";
  JsonEscape(os, tool_version);
  os << "\",\n"
     << "          \"informationUri\": \"https://example.invalid/ndc\",\n"
     << "          \"rules\": [";
  bool first = true;
  for (const auto& [num, code] : codes) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "            {\"id\": \"" << CodeId(code) << "\", \"name\": \""
       << CodeName(code) << "\", \"shortDescription\": {\"text\": \"" << CodeName(code)
       << "\"}}";
  }
  os << (codes.empty() ? "]" : "\n          ]") << "\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [";
  first = true;
  for (const Diagnostic& d : report.diags) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "        {\"ruleId\": \"" << CodeId(d.code)
       << "\", \"ruleIndex\": " << rule_index[static_cast<int>(d.code)]
       << ", \"level\": \"" << SarifLevel(d.severity) << "\", \"message\": {\"text\": \"";
    JsonEscape(os, d.message);
    os << "\"}, \"locations\": [{\"logicalLocations\": [{\"fullyQualifiedName\": \"";
    std::ostringstream loc;
    loc << "nest" << d.nest;
    if (d.stmt >= 0) loc << "/stmt" << d.stmt;
    JsonEscape(os, loc.str());
    os << "\", \"kind\": \"function\"}]}], \"properties\": {\"nest\": " << d.nest
       << ", \"stmt\": " << d.stmt << ", \"array\": " << d.array << "}}";
  }
  os << (report.diags.empty() ? "]" : "\n      ]") << "\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

}  // namespace ndc::verify
