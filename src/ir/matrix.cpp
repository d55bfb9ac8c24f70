#include "ir/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace ndc::ir {

IntVec IntMat::Apply(const IntVec& v) const {
  assert(static_cast<int>(v.size()) == cols_);
  IntVec out(static_cast<std::size_t>(rows_), 0);
  for (int r = 0; r < rows_; ++r) {
    Int s = 0;
    for (int c = 0; c < cols_; ++c) s += at(r, c) * v[static_cast<std::size_t>(c)];
    out[static_cast<std::size_t>(r)] = s;
  }
  return out;
}

int IntMat::Rank() const {
  // Fraction-free elimination; small sizes only.
  std::vector<double> m(a_.size());
  for (std::size_t i = 0; i < a_.size(); ++i) m[i] = static_cast<double>(a_[i]);
  auto e = [&](int r, int c) -> double& { return m[static_cast<std::size_t>(r * cols_ + c)]; };
  int rank = 0;
  for (int col = 0; col < cols_ && rank < rows_; ++col) {
    int p = -1;
    double best = 1e-9;
    for (int r = rank; r < rows_; ++r) {
      if (std::abs(e(r, col)) > best) {
        best = std::abs(e(r, col));
        p = r;
      }
    }
    if (p < 0) continue;
    for (int c = 0; c < cols_; ++c) std::swap(e(rank, c), e(p, c));
    for (int r = 0; r < rows_; ++r) {
      if (r == rank || std::abs(e(r, col)) < 1e-12) continue;
      double f = e(r, col) / e(rank, col);
      for (int c = 0; c < cols_; ++c) e(r, c) -= f * e(rank, c);
    }
    ++rank;
  }
  return rank;
}

bool IntMat::SolveInteger(const IntVec& b, IntVec* x) const {
  assert(static_cast<int>(b.size()) == rows_);
  // Rational Gaussian elimination with exact arithmetic via long double is
  // unsafe; use fractions as (num, den) pairs over Int. Sizes are tiny.
  int n = rows_, m = cols_;
  struct Frac {
    Int num = 0, den = 1;
    void Reduce() {
      if (den < 0) {
        num = -num;
        den = -den;
      }
      Int g = std::gcd(std::abs(num), den);
      if (g > 1) {
        num /= g;
        den /= g;
      }
    }
  };
  auto sub_mul = [](Frac a, Frac b, Frac f) {
    // a - b * f
    Frac r;
    r.num = a.num * b.den * f.den - b.num * f.num * a.den;
    r.den = a.den * b.den * f.den;
    r.Reduce();
    return r;
  };
  std::vector<std::vector<Frac>> aug(static_cast<std::size_t>(n),
                                     std::vector<Frac>(static_cast<std::size_t>(m + 1)));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < m; ++c) aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = {at(r, c), 1};
    aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(m)] = {b[static_cast<std::size_t>(r)], 1};
  }
  std::vector<int> pivot_col(static_cast<std::size_t>(n), -1);
  int row = 0;
  for (int col = 0; col < m && row < n; ++col) {
    int p = -1;
    for (int r = row; r < n; ++r) {
      if (aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)].num != 0) {
        p = r;
        break;
      }
    }
    if (p < 0) continue;
    std::swap(aug[static_cast<std::size_t>(row)], aug[static_cast<std::size_t>(p)]);
    Frac piv = aug[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
    for (int r = 0; r < n; ++r) {
      if (r == row) continue;
      Frac f = aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)];
      if (f.num == 0) continue;
      Frac ratio{f.num * piv.den, f.den * piv.num};
      ratio.Reduce();
      for (int c = col; c <= m; ++c) {
        aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
            sub_mul(aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                    aug[static_cast<std::size_t>(row)][static_cast<std::size_t>(c)], ratio);
      }
    }
    pivot_col[static_cast<std::size_t>(row)] = col;
    ++row;
  }
  // Inconsistency check.
  for (int r = row; r < n; ++r) {
    if (aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(m)].num != 0) return false;
  }
  IntVec sol(static_cast<std::size_t>(m), 0);  // free variables = 0
  for (int r = 0; r < row; ++r) {
    int c = pivot_col[static_cast<std::size_t>(r)];
    Frac piv = aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    Frac rhs = aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(m)];
    // x_c = rhs / piv must be integral.
    Int num = rhs.num * piv.den;
    Int den = rhs.den * piv.num;
    if (den == 0 || num % den != 0) return false;
    sol[static_cast<std::size_t>(c)] = num / den;
  }
  *x = std::move(sol);
  return true;
}

std::string IntMat::ToString() const {
  std::ostringstream os;
  for (int r = 0; r < rows_; ++r) {
    os << "[";
    for (int c = 0; c < cols_; ++c) os << (c ? " " : "") << at(r, c);
    os << "]";
  }
  return os.str();
}

int LexCompare(const IntVec& a, const IntVec& b) {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  return 0;
}

bool LexPositive(const IntVec& v) {
  for (Int x : v) {
    if (x > 0) return true;
    if (x < 0) return false;
  }
  return false;
}

bool IsZero(const IntVec& v) {
  return std::all_of(v.begin(), v.end(), [](Int x) { return x == 0; });
}

IntVec VecAdd(const IntVec& a, const IntVec& b) {
  IntVec r(a);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] += b[i];
  return r;
}

IntVec VecSub(const IntVec& a, const IntVec& b) {
  IntVec r(a);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  return r;
}

}  // namespace ndc::ir
