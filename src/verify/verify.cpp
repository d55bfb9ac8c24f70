#include "verify/verify.hpp"

namespace ndc::verify {

Report VerifyProgram(const ir::Program& prog, const VerifyOptions& opts) {
  Report report;
  if (opts.check_structure) ValidateIr(prog, opts, &report);
  if (opts.check_legality) AuditLegality(prog, opts, &report);
  if (opts.check_races) DetectRaces(prog, opts, &report);
  report.Sort();  // pass order never leaks into the report
  return report;
}

}  // namespace ndc::verify
