#pragma once

#include "ir/program.hpp"
#include "verify/diagnostics.hpp"
#include "verify/verify_options.hpp"

namespace ndc::verify {

/// Structural IR validation: array references and access-function shapes,
/// subscript ranges at the loop extremes (interval propagation over the
/// iteration box, so triangular bounds are handled conservatively), loop
/// bound dependences, and NDC annotation sanity (lead magnitudes vs `max_lead`, planned location vs the control
/// register, use-use chain shape).
///
/// Subscripts that *partially* escape the array at the extremes are
/// warnings — the code generator skips unresolvable instances, and stencil
/// halos rely on this — while an access that can never resolve is an error.
void ValidateIr(const ir::Program& prog, const VerifyOptions& opts, Report* report);

}  // namespace ndc::verify
