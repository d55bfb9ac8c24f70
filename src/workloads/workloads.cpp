#include "workloads/workloads.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/rng.hpp"

namespace ndc::workloads {
namespace {

using arch::Op;
using ir::Int;
using ir::IntVec;
using ir::Operand;

/// Small DSL for assembling kernels: 1-D arrays addressed by flattened
/// affine functions of the iteration vector.
struct Builder {
  ir::Program p;
  Scale scale;
  sim::Rng rng;
  ir::LoopNest* cur = nullptr;

  Builder(std::string name, Scale s, std::uint64_t seed) : scale(s), rng(seed) {
    p.name = std::move(name);
  }

  Int S(Int test, Int small, Int full) const {
    switch (scale) {
      case Scale::kTest: return test;
      case Scale::kSmall: return small;
      case Scale::kFull: return full;
    }
    return small;
  }

  int arr(const std::string& name, Int elems) { return p.AddArray(name, {elems}); }

  ir::LoopNest& nest(std::vector<ir::Loop> loops) {
    ir::LoopNest n;
    n.loops = std::move(loops);
    p.nests.push_back(std::move(n));
    cur = &p.nests.back();
    return *cur;
  }
  ir::LoopNest& nest1(Int n0) { return nest({{0, n0 - 1, -1, 0, -1, 0}}); }
  ir::LoopNest& nest2(Int n0, Int n1) {
    return nest({{0, n0 - 1, -1, 0, -1, 0}, {0, n1 - 1, -1, 0, -1, 0}});
  }
  ir::LoopNest& nest3(Int n0, Int n1, Int n2) {
    return nest({{0, n0 - 1, -1, 0, -1, 0},
                 {0, n1 - 1, -1, 0, -1, 0},
                 {0, n2 - 1, -1, 0, -1, 0}});
  }
  /// i in [0,n), j in [0, i] (lower-triangular).
  ir::LoopNest& tri2(Int n) {
    return nest({{0, n - 1, -1, 0, -1, 0}, {0, 0, -1, 0, 0, 1}});
  }

  Operand aff(int a, IntVec coefs, Int off) {
    assert(cur != nullptr && coefs.size() == static_cast<std::size_t>(cur->depth()));
    ir::AffineAccess acc;
    acc.array = a;
    acc.F = ir::IntMat(1, cur->depth());
    for (int c = 0; c < cur->depth(); ++c) acc.F.at(0, c) = coefs[static_cast<std::size_t>(c)];
    acc.f = {off};
    return Operand::Affine(std::move(acc));
  }

  Operand ind(int idx_array, IntVec coefs, Int off, int target) {
    return Operand::Indirect(aff(idx_array, std::move(coefs), off).access, target);
  }

  /// Replicates all nests built so far `passes`-1 more times (iterative
  /// time-stepping, as in the original applications). Statement ids are
  /// shared across passes: it is the same static code executing again.
  void Replicate(int passes) {
    std::vector<ir::LoopNest> base = p.nests;
    for (int t = 1; t < passes; ++t) {
      for (const ir::LoopNest& n : base) p.nests.push_back(n);
    }
    cur = nullptr;
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

  /// Index array whose entries point into [0, target_size) near a moving
  /// center (locality window w).
  int idx_local(const std::string& name, Int n, Int target_size, Int w) {
    int a = arr(name, n);
    std::vector<Int>& data = p.index_data[a];
    data.resize(static_cast<std::size_t>(n));
    for (Int i = 0; i < n; ++i) {
      Int center = i * target_size / n;
      Int v = center + rng.NextInRange(-w, w);
      data[static_cast<std::size_t>(i)] = std::clamp<Int>(v, 0, target_size - 1);
    }
    return a;
  }

  /// Uniformly random index array (global, poor locality).
  int idx_global(const std::string& name, Int n, Int target_size) {
    int a = arr(name, n);
    std::vector<Int>& data = p.index_data[a];
    data.resize(static_cast<std::size_t>(n));
    for (Int i = 0; i < n; ++i) {
      data[static_cast<std::size_t>(i)] = static_cast<Int>(rng.NextBelow(static_cast<std::uint64_t>(target_size)));
    }
    return a;
  }

  /// Skewed index array: fraction `hot` of accesses hit the first
  /// `target_size/16` entries (tree roots / hot cells).
  int idx_skewed(const std::string& name, Int n, Int target_size, double hot) {
    int a = arr(name, n);
    std::vector<Int>& data = p.index_data[a];
    data.resize(static_cast<std::size_t>(n));
    Int hot_range = std::max<Int>(1, target_size / 16);
    for (Int i = 0; i < n; ++i) {
      Int v = rng.NextBool(hot)
                  ? static_cast<Int>(rng.NextBelow(static_cast<std::uint64_t>(hot_range)))
                  : static_cast<Int>(rng.NextBelow(static_cast<std::uint64_t>(target_size)));
      data[static_cast<std::size_t>(i)] = v;
    }
    return a;
  }
};

// ---------------------------------------------------------------------------
// The 20 stand-in kernels (paper Figure-2 order).
// ---------------------------------------------------------------------------

// Archetype notes (see DESIGN.md):
//  A: 128-byte-strided streams over L2-resident arrays -> link-buffer meets
//     on the second time step (the bulk of NDC, like the paper's Fig. 13).
//  B: same-L2-line operand pairs -> cache-controller meets.
//  C: single-pass same-page large-stride pairs -> memory-queue/bank meets.
//  Dense (8-byte) strides mark locality-rich code NDC must leave alone.

// md: neighbor-list molecular dynamics — indirect gathers plus an A-stream.
ir::Program MakeMd(Builder b) {
  Int P = b.S(200, 1100, 2200), K = 8;
  int pos = b.arr("pos", P * K * 4);
  int q = b.arr("q", P * K * 16);
  int f = b.arr("f", P);
  b.nest2(P, K);
  int nbr = b.idx_local("nbr", P * K, P * K * 4, 4096);
  b.stmt(b.aff(f, {1, 0}, 0), Op::kAdd, b.ind(nbr, {K, 1}, 0, pos),
         b.aff(q, {K * 16, 16}, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// bwaves: dense 3-D stencil (locality-rich control case).
ir::Program MakeBwaves(Builder b) {
  Int N = b.S(12, 21, 27);
  Int NN = N + 2;
  int u = b.arr("u", NN * NN * NN);
  int v = b.arr("v", NN * NN * NN);
  int w = b.arr("w", NN * NN * NN);
  int fl = b.arr("fl", NN * NN * NN * 16);
  int fr = b.arr("fr", NN * NN * NN * 16);
  b.nest3(N, N, N);
  IntVec c{NN * NN, NN, 1};
  IntVec c16{NN * NN * 16, NN * 16, 16};
  b.stmt(b.aff(u, c, 0), Op::kAdd, b.aff(v, c, 1), b.aff(v, c, NN));
  b.stmt(b.aff(w, c, 0), Op::kAdd, b.aff(fl, c16, 0), b.aff(fr, c16, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// nab: two independent A-streams (direct + transposed-ish offsets).
ir::Program MakeNab(Builder b) {
  Int P = b.S(50, 210, 420), Q = 48;
  int a = b.arr("a", P * Q * 16);
  int bb = b.arr("b", P * Q * 16);
  int e = b.arr("e", P * Q);
  b.nest2(P, Q);
  b.stmt(b.aff(e, {Q, 1}, 0), Op::kAdd, b.aff(a, {Q * 16, 16}, 0),
         b.aff(bb, {16, P * 16}, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// bt: B-archetype same-L2-line pairs plus an A-stream.
ir::Program MakeBt(Builder b) {
  Int N = b.S(44, 96, 136);
  int a = b.arr("a", N * N * 32 + 64);
  int c = b.arr("c", N * N * 16);
  int x = b.arr("x", N * N);
  int y = b.arr("y", N * N);
  b.nest2(N, N);
  // Same 256-byte L2 line: offsets 0 and +16 elements (128 B) on a
  // 32-element (256 B) stride.
  b.stmt(b.aff(x, {N, 1}, 0), Op::kAdd, b.aff(a, {N * 32, 32}, 0),
         b.aff(a, {N * 32, 32}, 16));
  b.stmt(b.aff(y, {N, 1}, 0), Op::kAdd, b.aff(c, {N * 16, 16}, 0),
         b.aff(x, {N, 1}, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// fma3d: unstructured FEM — two indirect gathers over a large mesh.
ir::Program MakeFma3d(Builder b) {
  Int E = b.S(1600, 9600, 19200), C = 4;
  int coord = b.arr("coord", E * 16);
  int vel = b.arr("vel", E * 16);
  int s = b.arr("s", E);
  b.nest2(E / 4, C);
  int en = b.idx_local("en", (E / 4) * C, E * 16, 2048);
  int en2 = b.idx_local("en2", (E / 4) * C, E * 16, 2048);
  b.stmt(b.aff(s, {1, 0}, 0), Op::kAdd, b.ind(en, {C, 1}, 0, coord),
         b.ind(en2, {C, 1}, 0, vel));
  b.Replicate(2);
  return std::move(b.p);
}

// swim: dense shallow-water stencils with p-group reuse + one A-stream pair
// (the Algorithm-1-vs-2 tradeoff case).
ir::Program MakeSwim(Builder b) {
  Int N = b.S(40, 100, 144);
  Int M = N + 2;
  int u = b.arr("u", M * M * 16);
  int pp = b.arr("p", M * M * 16);
  int cu = b.arr("cu", M * M);
  int cv = b.arr("cv", M * M);
  b.nest2(N, N);
  IntVec r16{M * 16, 16};
  // p is reused by the second statement one row later: Algorithm 2 skips,
  // Algorithm 1 offloads and pays the locality price.
  b.stmt(b.aff(cu, {M, 1}, 0), Op::kAdd, b.aff(pp, r16, M * 16), b.aff(u, r16, 0));
  b.stmt(b.aff(cv, {M, 1}, 0), Op::kAdd, b.aff(pp, r16, 16), b.aff(u, r16, 8));
  b.Replicate(2);
  return std::move(b.p);
}

// imagick: dense convolution (locality-rich) + an A-stream blend.
ir::Program MakeImagick(Builder b) {
  Int N = b.S(40, 100, 144);
  Int M = N + 2;
  int in = b.arr("in", M * M);
  int tex = b.arr("tex", M * M * 16);
  int tex2 = b.arr("tex2", M * M * 16);
  int out = b.arr("out", M * M);
  b.nest2(N, N);
  IntVec r{M, 1};
  b.stmt(b.aff(out, r, 0), Op::kAdd, b.aff(in, r, 0), b.aff(in, r, M + 1));
  b.stmt(b.aff(out, r, 1), Op::kMul, b.aff(tex, {M * 16, 16}, 0),
         b.aff(tex2, {M * 16, 16}, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// mgrid: C-archetype — single-pass coarse restriction whose same-page pairs
// meet at the memory controller / DRAM bank.
ir::Program MakeMgrid(Builder b) {
  Int N = b.S(1000, 5500, 11000);
  int u = b.arr("u", N * 64 + 64);
  int rr = b.arr("r", N);
  int g = b.arr("g", N * 16);
  b.nest1(N);
  // 512-byte stride, +128 B partner: same 4 KB page and same DRAM bank.
  b.stmt(b.aff(rr, {1}, 0), Op::kAdd, b.aff(u, {64}, 0), b.aff(u, {64}, 16));
  b.nest1(N);
  b.stmt(b.aff(rr, {1}, 0), Op::kMul, b.aff(g, {16}, 0), b.aff(rr, {1}, 0));
  return std::move(b.p);
}

// applu: SSOR wavefront (flow deps limit movement) + A-streams.
ir::Program MakeApplu(Builder b) {
  Int N = b.S(40, 100, 144);
  Int M = N + 2;
  int x = b.arr("x", M * M);
  int f = b.arr("f", M * M * 16);
  int g = b.arr("g", M * M * 16);
  int rhs = b.arr("rhs", M * M);
  b.nest2(N, N);
  IntVec r{M, 1};
  IntVec r16{M * 16, 16};
  b.stmt(b.aff(rhs, r, 0), Op::kAdd, b.aff(f, r16, 0), b.aff(g, r16, 0));
  b.stmt(b.aff(x, r, M + 1), Op::kAdd, b.aff(x, r, 1), b.aff(x, r, M));
  b.Replicate(2);
  return std::move(b.p);
}

// smith.wa: DP wavefront (diagonal dep) + strided scoring A-pair.
ir::Program MakeSmithWa(Builder b) {
  Int N = b.S(40, 100, 144);
  Int M = N + 2;
  int h = b.arr("H", M * M);
  int sub = b.arr("S", M * M * 16);
  int gap = b.arr("gap", M * M * 16);
  int e = b.arr("E", M * M);
  b.nest2(N, N);
  IntVec r{M, 1};
  IntVec r16{M * 16, 16};
  b.stmt(b.aff(h, r, M + 1), Op::kAdd, b.aff(h, r, 0), b.aff(sub, r16, 0));
  b.stmt(b.aff(e, r, 0), Op::kAdd, b.aff(sub, r16, 8), b.aff(gap, r16, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// kdtree: skewed tree-walk indirection + query A-stream.
ir::Program MakeKdtree(Builder b) {
  Int Q = b.S(800, 4000, 8000), D = 10;
  int tree = b.arr("tree", Q * 16);
  int query = b.arr("query", Q * D * 16);
  int res = b.arr("res", Q);
  b.nest2(Q / 8, D);
  int tidx = b.idx_skewed("tidx", (Q / 8) * D, Q * 16, 0.2);
  b.stmt(b.aff(res, {1, 0}, 0), Op::kAdd, b.ind(tidx, {D, 1}, 0, tree),
         b.aff(query, {D * 16, 16}, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// barnes: Barnes-Hut walk — two skewed indirections (hot cells).
ir::Program MakeBarnes(Builder b) {
  Int B = b.S(600, 3200, 6400), L = 12;
  int cell = b.arr("cell", B * 16);
  int mass = b.arr("mass", B * 16);
  int acc = b.arr("acc", B);
  b.nest2(B / 8, L);
  int cidx = b.idx_skewed("cidx", (B / 8) * L, B * 16, 0.1);
  int cidx2 = b.idx_skewed("cidx2", (B / 8) * L, B * 16, 0.1);
  b.stmt(b.aff(acc, {1, 0}, 0), Op::kAdd, b.ind(cidx, {L, 1}, 0, cell),
         b.ind(cidx2, {L, 1}, 0, mass));
  b.Replicate(2);
  return std::move(b.p);
}

// cholesky: triangular panel updates with B-archetype same-line pairs.
ir::Program MakeCholesky(Builder b) {
  Int N = b.S(52, 128, 180);
  int a = b.arr("A", N * N * 32 + 64);
  int d = b.arr("D", N * N);
  b.tri2(N);
  b.stmt(b.aff(d, {N, 1}, 0), Op::kAdd, b.aff(a, {N * 32, 32}, 0),
         b.aff(a, {N * 32, 32}, 16));
  b.Replicate(2);
  return std::move(b.p);
}

// fft: butterfly stages over an L2-resident array; later stages re-touch
// lines the first stage fetched.
ir::Program MakeFft(Builder b) {
  Int N = b.S(1024, 4096, 8192);
  int x = b.arr("X", N * 16);
  int y = b.arr("Y", N);
  for (Int st = 1; st <= 4; st *= 2) {
    Int groups = N / (2 * st);
    b.nest2(groups, st);
    b.stmt(b.aff(y, {2 * st, 1}, 0), Op::kAdd, b.aff(x, {2 * st * 16, 16}, 0),
           b.aff(x, {2 * st * 16, 16}, st * 16));
  }
  return std::move(b.p);
}

// lu: triangular 3-level factorization (Figure 10 shape), panel reuse.
ir::Program MakeLu(Builder b) {
  Int N = b.S(22, 44, 62), K = 6;
  Int M = (N + K) * 16;
  int a = b.arr("A", (N + K) * M + 64);
  b.nest({{0, K - 1, -1, 0, -1, 0},
          {1, N - 1, 0, 1, -1, 0},
          {1, N - 1, 0, 1, -1, 0}});
  b.stmt(b.aff(a, {0, M, 16}, 0), Op::kAdd, b.aff(a, {16, M, 0}, 0),
         b.aff(a, {M, 0, 16}, 0));
  // Pivot-row scaling: two independent strided panels.
  Int P = N * N / 2;
  int pl = b.arr("PL", P * 16);
  int pu = b.arr("PU", P * 16);
  int pd = b.arr("PD", P);
  b.nest1(P);
  b.stmt(b.aff(pd, {1}, 0), Op::kAdd, b.aff(pl, {16}, 0), b.aff(pu, {16}, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// ocean: dependence-carried relaxation + A-stream vorticity.
ir::Program MakeOcean(Builder b) {
  Int N = b.S(44, 100, 144);
  Int M = N + 2;
  int q = b.arr("q", M * M);
  int w = b.arr("w", M * M * 16);
  int w2 = b.arr("w2", M * M * 16);
  int psi = b.arr("psi", M * M);
  b.nest2(N, N);
  IntVec r{M, 1};
  IntVec r16{M * 16, 16};
  b.stmt(b.aff(q, r, 0), Op::kAdd, b.aff(q, r, M), b.aff(q, r, 1));
  b.stmt(b.aff(psi, r, 0), Op::kAdd, b.aff(w, r16, 0), b.aff(w2, r16, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// radiosity: globally random interactions (unpredictable windows, Fig. 5).
ir::Program MakeRadiosity(Builder b) {
  Int I = b.S(640, 3200, 6400), J = 10;
  int ff = b.arr("ff", I * 16);
  int srad = b.arr("srad", I * 16);
  int rad = b.arr("rad", I);
  b.nest2(I / 8, J);
  int fidx = b.idx_global("fidx", (I / 8) * J, I * 16);
  int sidx = b.idx_global("sidx", (I / 8) * J, I * 16);
  b.stmt(b.aff(rad, {1, 0}, 0), Op::kAdd, b.ind(fidx, {J, 1}, 0, ff),
         b.ind(sidx, {J, 1}, 0, srad));
  b.Replicate(2);
  return std::move(b.p);
}

// raytrace: skewed scene indirection + ray A-stream.
ir::Program MakeRaytrace(Builder b) {
  Int R = b.S(800, 4000, 8000), D = 6;
  int scene = b.arr("scene", R * 16);
  int ray = b.arr("ray", R * D * 16);
  int pix = b.arr("pix", R);
  b.nest2(R / 8, D);
  int oidx = b.idx_skewed("oidx", (R / 8) * D, R * 16, 0.3);
  b.stmt(b.aff(pix, {1, 0}, 0), Op::kAdd, b.ind(oidx, {D, 1}, 0, scene),
         b.aff(ray, {D * 16, 16}, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// volrend: semi-regular volume indirection + opacity A-stream.
ir::Program MakeVolrend(Builder b) {
  Int R = b.S(640, 3200, 6400), ST = 8;
  int vol = b.arr("vol", R * 16);
  int opac = b.arr("opac", R * ST * 16);
  int val = b.arr("val", R);
  b.nest2(R / 8, ST);
  int vidx = b.idx_local("vidx", (R / 8) * ST, R * 16, 8192);
  b.stmt(b.aff(val, {1, 0}, 0), Op::kAdd, b.ind(vidx, {ST, 1}, 0, vol),
         b.aff(opac, {ST * 16, 16}, 0));
  b.Replicate(2);
  return std::move(b.p);
}

// water: a reused operand (Algorithm 2 defers to locality) + a C-archetype
// single-pass pair that can meet near memory.
ir::Program MakeWater(Builder b) {
  Int M = b.S(200, 1000, 2000), K = 10;
  int x = b.arr("x", M * K * 2);
  int xm = b.arr("xm", M);
  int e = b.arr("e", M);
  int g = b.arr("g", M * K * 8 + 2112);
  int e2 = b.arr("e2", M * K);
  b.nest2(M, K);
  int widx = b.idx_local("widx", M * K, M * K * 2, 1024);
  // xm[m] is reused K times across the inner loop: locality should win.
  b.stmt(b.aff(e, {1, 0}, 0), Op::kAdd, b.ind(widx, {K, 1}, 0, x), b.aff(xm, {1, 0}, 0));
  // Operands 16 KB apart: same memory controller, different DRAM banks —
  // the memory-queue NDC candidate.
  b.stmt(b.aff(e2, {K, 1}, 0), Op::kAdd, b.aff(g, {K * 8, 8}, 0),
         b.aff(g, {K * 8, 8}, 2048));
  return std::move(b.p);
}

}  // namespace

const std::vector<WorkloadInfo>& AllWorkloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"md", "SPEC OMP", "neighbor-list n-body (indirect gather)"},
      {"bwaves", "SPEC OMP", "3-D flow stencil"},
      {"nab", "SPEC OMP", "transposed pair interactions"},
      {"bt", "SPEC OMP", "block-tridiagonal neighbour couplings"},
      {"fma3d", "SPEC OMP", "unstructured FEM gathers"},
      {"swim", "SPEC OMP", "shallow-water stencils (group reuse)"},
      {"imagick", "SPEC OMP", "image convolution"},
      {"mgrid", "SPEC OMP", "multigrid restriction (stride-2)"},
      {"applu", "SPEC OMP", "SSOR wavefront (flow deps)"},
      {"smith.wa", "SPEC OMP", "Smith-Waterman DP wavefront"},
      {"kdtree", "SPEC OMP", "k-d tree queries (skewed indirect)"},
      {"barnes", "SPLASH-2", "Barnes-Hut tree walk (hot cells)"},
      {"cholesky", "SPLASH-2", "triangular factorization"},
      {"fft", "SPLASH-2", "butterfly stages"},
      {"lu", "SPLASH-2", "LU factorization (triangular 3-level)"},
      {"ocean", "SPLASH-2", "grid relaxation"},
      {"radiosity", "SPLASH-2", "global random interactions"},
      {"raytrace", "SPLASH-2", "ray-object intersections"},
      {"volrend", "SPLASH-2", "volume ray casting"},
      {"water", "SPLASH-2", "pair interactions with reused operand"},
  };
  return kAll;
}

std::vector<std::string> BenchmarkNames() {
  std::vector<std::string> names;
  for (const WorkloadInfo& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

ir::Program BuildWorkload(const std::string& name, Scale scale, std::uint64_t seed) {
  Builder b(name, scale, seed * 0x9E3779B9u + 12345);
  if (name == "md") return MakeMd(std::move(b));
  if (name == "bwaves") return MakeBwaves(std::move(b));
  if (name == "nab") return MakeNab(std::move(b));
  if (name == "bt") return MakeBt(std::move(b));
  if (name == "fma3d") return MakeFma3d(std::move(b));
  if (name == "swim") return MakeSwim(std::move(b));
  if (name == "imagick") return MakeImagick(std::move(b));
  if (name == "mgrid") return MakeMgrid(std::move(b));
  if (name == "applu") return MakeApplu(std::move(b));
  if (name == "smith.wa") return MakeSmithWa(std::move(b));
  if (name == "kdtree") return MakeKdtree(std::move(b));
  if (name == "barnes") return MakeBarnes(std::move(b));
  if (name == "cholesky") return MakeCholesky(std::move(b));
  if (name == "fft") return MakeFft(std::move(b));
  if (name == "lu") return MakeLu(std::move(b));
  if (name == "ocean") return MakeOcean(std::move(b));
  if (name == "radiosity") return MakeRadiosity(std::move(b));
  if (name == "raytrace") return MakeRaytrace(std::move(b));
  if (name == "volrend") return MakeVolrend(std::move(b));
  if (name == "water") return MakeWater(std::move(b));
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace ndc::workloads
