#pragma once

#include "ir/program.hpp"
#include "verify/diagnostics.hpp"
#include "verify/verify_options.hpp"

namespace ndc::verify {

/// Independent legality audit of a compiled program: re-derives each nest's
/// dependence set with `analysis::AnalyzeDependences`, then re-checks every
/// NDC access-movement lead with `analysis::DependenceSet::ReadHoistIsSafe`
/// (a moved read must not cross a conflicting write, Figures 8-9).
/// Any violation is an annotation the compiler should never have emitted
/// and is reported at error severity.
void AuditLegality(const ir::Program& prog, const VerifyOptions& opts, Report* report);

}  // namespace ndc::verify
