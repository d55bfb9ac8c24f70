#include "workloads/sharded.hpp"

#include <stdexcept>

#include "verify/verify.hpp"

namespace ndc::workloads {
namespace {

using arch::Op;
using ir::Int;
using ir::IntVec;
using ir::Operand;

Int ChunkFor(Scale scale) {
  switch (scale) {
    case Scale::kTest: return 24;
    case Scale::kSmall: return 256;
    case Scale::kFull: return 1024;
  }
  return 256;
}

struct ShardBuilder {
  ir::Program p;
  Int C;      ///< shard (core) count — outer trip
  Int chunk;  ///< iterations per shard — inner trip
  ir::LoopNest* cur = nullptr;

  ShardBuilder(std::string name, Scale scale, int num_cores)
      : C(std::max(1, num_cores)), chunk(ChunkFor(scale)) {
    p.name = std::move(name);
  }

  Int N() const { return C * chunk; }

  int arr(const std::string& name, Int elems) { return p.AddArray(name, {elems}); }

  /// Depth-2 nest: c in [0,C), i_local in [0,chunk). Annotated parallel on
  /// level 0 (the shard dimension).
  ir::LoopNest& shard_nest() {
    ir::LoopNest n;
    n.loops = {{0, C - 1, -1, 0, -1, 0}, {0, chunk - 1, -1, 0, -1, 0}};
    n.parallel.level = 0;
    p.nests.push_back(std::move(n));
    cur = &p.nests.back();
    return *cur;
  }

  /// Depth-2 combine nest with a trip-1 outer loop: block distribution
  /// lands every iteration on core 0, so the inner loop runs sequentially.
  ir::LoopNest& seq_nest(Int inner_trip) {
    ir::LoopNest n;
    n.loops = {{0, 0, -1, 0, -1, 0}, {0, inner_trip - 1, -1, 0, -1, 0}};
    n.parallel.level = 0;
    p.nests.push_back(std::move(n));
    cur = &p.nests.back();
    return *cur;
  }

  /// Access at global index chunk*c + i_local + off.
  Operand global(int a, Int off) { return aff(a, {chunk, 1}, off); }
  /// Access indexed by the shard id only (per-core slot).
  Operand percore(int a, Int off = 0) { return aff(a, {1, 0}, off); }
  /// Access indexed by the inner iterator only.
  Operand inner(int a, Int off = 0) { return aff(a, {0, 1}, off); }
  /// Constant cell (same element every iteration).
  Operand cell(int a, Int off = 0) { return aff(a, {0, 0}, off); }

  Operand aff(int a, IntVec coefs, Int off) {
    ir::AffineAccess acc;
    acc.array = a;
    acc.F = ir::IntMat(1, cur->depth());
    for (int c = 0; c < cur->depth(); ++c) acc.F.at(0, c) = coefs[static_cast<std::size_t>(c)];
    acc.f = {off};
    return Operand::Affine(std::move(acc));
  }

  void stmt(Operand lhs, Op op, Operand r0, Operand r1) {
    ir::Stmt s;
    s.id = p.NextStmtId();
    s.lhs = std::move(lhs);
    s.op = op;
    s.rhs0 = std::move(r0);
    s.rhs1 = std::move(r1);
    cur->body.push_back(std::move(s));
  }
};

// shard.stream: stmt0 writes the front half of x, stmt1 reads the back
// half. The uniform solve cannot bound the N-element offset (an integral
// solution exists outside the iteration space), so plain dependence
// analysis reports the pair unknown; only the section-disjointness
// refinement proves the halves never meet.
ir::Program MakeShardStream(ShardBuilder b) {
  Int N = b.N();
  int x = b.arr("x", 2 * N);
  int a = b.arr("a", N);
  int out = b.arr("out", N);
  b.shard_nest();
  b.stmt(b.global(x, 0), Op::kAdd, b.global(a, 0), b.global(x, N));
  b.stmt(b.global(out, 0), Op::kMul, b.global(x, N), b.global(a, 0));
  return std::move(b.p);
}

// shard.stencil: halo-offset Jacobi step over separate in/out buffers —
// every cross-shard read is of a read-only array, so level 0 is DOALL with
// no obligations.
ir::Program MakeShardStencil(ShardBuilder b) {
  Int N = b.N();
  int in = b.arr("in", N + 2);
  int out = b.arr("out", N + 2);
  b.shard_nest();
  b.stmt(b.global(out, 1), Op::kAdd, b.global(in, 0), b.global(in, 2));
  return std::move(b.p);
}

// shard.reduce: per-core partial sums (the accumulator is indexed by the
// shard id, so its self-dependence is carried at level 1, inside one core)
// followed by a sequential combine nest whose trip-1 outer loop pins every
// iteration to core 0.
ir::Program MakeShardReduce(ShardBuilder b) {
  Int N = b.N();
  int data = b.arr("data", N);
  int acc = b.arr("acc", b.C);
  int total = b.arr("total", 1);
  b.shard_nest();
  b.stmt(b.percore(acc), Op::kAdd, b.percore(acc), b.global(data, 0));
  b.seq_nest(b.C);
  b.stmt(b.cell(total), Op::kAdd, b.cell(total), b.inner(acc));
  return std::move(b.p);
}

// shard.priv: a per-core temporary (privatization realized by array
// expansion over the shard id). The classifier reports tmp privatizable —
// its carried output dependence sits at level 1 and is discharged by that
// evidence — while level 0 stays obligation-free.
ir::Program MakeShardPriv(ShardBuilder b) {
  Int N = b.N();
  int a = b.arr("a", N);
  int w = b.arr("w", N);
  int tmp = b.arr("tmp", b.C);
  int out = b.arr("out", N);
  b.shard_nest();
  b.stmt(b.percore(tmp), Op::kMul, b.global(a, 0), b.global(w, 0));
  b.stmt(b.global(out, 0), Op::kAdd, b.percore(tmp), b.global(w, 0));
  return std::move(b.p);
}

// shard.racy (test-only): a first-order recurrence out[i] = out[i-1] + a[i]
// crosses every shard boundary; the gate must reject it.
ir::Program MakeShardRacy(ShardBuilder b) {
  Int N = b.N();
  int a = b.arr("a", N);
  int out = b.arr("out", N + 1);
  b.shard_nest();
  b.stmt(b.global(out, 1), Op::kAdd, b.global(out, 0), b.global(a, 0));
  return std::move(b.p);
}

/// The verifier gate, now the real thing: run the P4xx annotation proofs
/// over the generated program and reject on any error. Scenario
/// construction discharges obligations physically (per-core accumulators,
/// expanded temporaries), so a throw here means the generator produced code it cannot
/// prove race-free — a bug, never a recoverable condition. Structure and
/// legality passes stay off: they audit compiler output, and boundary
/// subscripts some scenarios use on purpose are their business to warn
/// about post-compile.
void GateOrThrow(const ir::Program& p) {
  verify::VerifyOptions vo;
  vo.check_structure = false;
  vo.check_legality = false;
  verify::Report rep = verify::VerifyProgram(p, vo);
  if (rep.Clean()) return;
  throw std::logic_error("sharded generator gate failed for " + p.name + ":\n" +
                         rep.ToText());
}

}  // namespace

const std::vector<WorkloadInfo>& ShardedScenarios() {
  static const std::vector<WorkloadInfo> kAll = {
      {"shard.stream", "sharded", "disjoint-halves stream (needs section disjointness)"},
      {"shard.stencil", "sharded", "halo Jacobi step, separate buffers"},
      {"shard.reduce", "sharded", "per-core partials + sequential combine"},
      {"shard.priv", "sharded", "per-core expanded temporary"},
  };
  return kAll;
}

std::vector<std::string> ShardedNames() {
  std::vector<std::string> names;
  for (const WorkloadInfo& w : ShardedScenarios()) names.push_back(w.name);
  return names;
}

bool IsShardedScenario(const std::string& name) {
  return name.rfind("shard.", 0) == 0;
}

ir::Program BuildShardedWorkload(const std::string& name, Scale scale, int num_cores,
                                 std::uint64_t seed) {
  (void)seed;  // scenarios are deterministic; kept for BuildWorkload parity
  ShardBuilder b(name, scale, num_cores);
  ir::Program p;
  if (name == "shard.stream") {
    p = MakeShardStream(std::move(b));
  } else if (name == "shard.stencil") {
    p = MakeShardStencil(std::move(b));
  } else if (name == "shard.reduce") {
    p = MakeShardReduce(std::move(b));
  } else if (name == "shard.priv") {
    p = MakeShardPriv(std::move(b));
  } else if (name == "shard.racy") {
    p = MakeShardRacy(std::move(b));
  } else {
    throw std::invalid_argument("unknown sharded scenario: " + name);
  }
  GateOrThrow(p);
  return p;
}

}  // namespace ndc::workloads
