#pragma once

#include <cstdint>

#include "arch/config.hpp"
#include "ir/matrix.hpp"

namespace ndc::verify {

/// Configuration shared by all verification passes. The annotation limits
/// default to the compiler pipeline's defaults; callers auditing a program
/// produced with non-default `CompileOptions` should mirror those values
/// here so the audit checks what the compiler was actually allowed to emit.
struct VerifyOptions {
  ir::Int max_lead = 64;                           ///< cap on access movement
  std::uint8_t control_register = arch::kAllLocs;  ///< allowed NDC locations
};

}  // namespace ndc::verify
