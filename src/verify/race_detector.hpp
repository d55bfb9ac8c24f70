#pragma once

#include "ir/program.hpp"
#include "verify/diagnostics.hpp"
#include "verify/verify_options.hpp"

namespace ndc::verify {

/// Parallel-loop race detection. The code generator block-distributes every
/// nest's outermost loop across cores, so any dependence carried by that
/// dimension (distance[0] != 0) may cross a core boundary and execute
/// unordered. Such dependences — and unanalyzable (indirect or non-uniform)
/// dependences, which could be carried anywhere — are reported at warning
/// severity: the timing simulator tolerates them, but the parallelization
/// is not semantics-preserving for the affected arrays.
void DetectRaces(const ir::Program& prog, const VerifyOptions& opts, Report* report);

}  // namespace ndc::verify
