#pragma once

#include "ir/program.hpp"
#include "verify/diagnostics.hpp"
#include "verify/ir_validator.hpp"
#include "verify/legality_audit.hpp"
#include "verify/race_detector.hpp"
#include "verify/verify_options.hpp"

namespace ndc::verify {

/// Runs every enabled verification pass over `prog` and returns the merged
/// report. The passes are independent of the pipeline that produced the
/// program: they re-derive dependences and re-check every annotation from
/// scratch, so a pipeline bug that emits an unsafe access movement surfaces
/// here instead of silently corrupting results.
Report VerifyProgram(const ir::Program& prog, const VerifyOptions& opts = {});

}  // namespace ndc::verify
