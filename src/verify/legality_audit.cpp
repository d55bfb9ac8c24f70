#include "verify/legality_audit.hpp"

#include <algorithm>
#include <string>

#include "analysis/dependence.hpp"

namespace ndc::verify {
namespace {

int OperandArray(const ir::Operand& op) {
  return op.kind == ir::Operand::Kind::kIndirect ? op.target_array : op.access.array;
}

bool HasUnknownDeps(const analysis::DependenceSet& deps, int array) {
  return std::find(deps.unknown_arrays.begin(), deps.unknown_arrays.end(), array) !=
         deps.unknown_arrays.end();
}

}  // namespace

void AuditLegality(const ir::Program& prog, const VerifyOptions& opts, Report* report) {
  (void)opts;
  for (int n = 0; n < static_cast<int>(prog.nests.size()); ++n) {
    const ir::LoopNest& nest = prog.nests[static_cast<std::size_t>(n)];
    if (nest.depth() == 0) continue;
    analysis::DependenceSet deps = analysis::AnalyzeDependences(prog, nest);

    // The same linearization the pipeline uses when it sizes movements:
    // the static trip count of the innermost loop.
    ir::Int inner_trip = 1;
    const ir::Loop& inner = nest.loops.back();
    inner_trip = std::max<ir::Int>(1, inner.hi - inner.lo + 1);

    for (int s = 0; s < static_cast<int>(nest.body.size()); ++s) {
      const ir::Stmt& st = nest.body[static_cast<std::size_t>(s)];
      if (!st.ndc.offload) continue;
      for (auto [op, lead, name] : {std::tuple{&st.rhs0, st.ndc.lead0, "lead0"},
                                    std::tuple{&st.rhs1, st.ndc.lead1, "lead1"}}) {
        if (lead == 0) continue;
        if (!op->IsMemory()) continue;  // the validator reports the shape error
        int array = OperandArray(*op);
        if (deps.ReadHoistIsSafe(array, lead, inner_trip)) continue;
        if (HasUnknownDeps(deps, array)) {
          report->Add(Severity::kError, Code::kLeadOnUnknownArray,
                      std::string(name) + " = " + std::to_string(lead) +
                          " moves a read of an array with unanalyzable dependences",
                      n, s, st.id, array);
        } else {
          report->Add(Severity::kError, Code::kUnsafeLead,
                      std::string(name) + " = " + std::to_string(lead) +
                          " crosses a conflicting write (flow dependence within the "
                          "movement window)",
                      n, s, st.id, array);
        }
      }
    }
  }
}

}  // namespace ndc::verify
