#include "verify/verify.hpp"

namespace ndc::verify {

Report VerifyProgram(const ir::Program& prog, const VerifyOptions& opts) {
  Report report;
  ValidateIr(prog, opts, &report);
  AuditLegality(prog, opts, &report);
  DetectRaces(prog, opts, &report);
  report.Sort();  // pass order never leaks into the report
  return report;
}

}  // namespace ndc::verify
