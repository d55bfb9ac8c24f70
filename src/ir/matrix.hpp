#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace ndc::ir {

using Int = std::int64_t;
using IntVec = std::vector<Int>;

/// A small dense integer matrix (row-major). Used for affine access
/// functions F (subscript = F*I + f). Sizes are tiny (loop depths <= 4), so
/// all operations are simple dense algorithms.
class IntMat {
 public:
  IntMat() = default;
  IntMat(int rows, int cols) : rows_(rows), cols_(cols), a_(static_cast<std::size_t>(rows * cols), 0) {}
  IntMat(int rows, int cols, std::vector<Int> data) : rows_(rows), cols_(cols), a_(std::move(data)) {
    assert(static_cast<int>(a_.size()) == rows * cols);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  Int& at(int r, int c) { return a_[static_cast<std::size_t>(r * cols_ + c)]; }
  Int at(int r, int c) const { return a_[static_cast<std::size_t>(r * cols_ + c)]; }
  /// The entries, row-major (rows() * cols() of them).
  const Int* data() const { return a_.data(); }

  IntVec Apply(const IntVec& v) const;  ///< this * v

  /// Rank over the rationals.
  int Rank() const;

  /// Solves this * x = b exactly over the integers. Returns false if the
  /// system has no integral solution (or is singular/inconsistent).
  bool SolveInteger(const IntVec& b, IntVec* x) const;

  friend bool operator==(const IntMat&, const IntMat&) = default;

  std::string ToString() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<Int> a_;
};

/// Lexicographic comparison of integer vectors.
int LexCompare(const IntVec& a, const IntVec& b);
bool LexPositive(const IntVec& v);  ///< first nonzero entry > 0
bool IsZero(const IntVec& v);

IntVec VecAdd(const IntVec& a, const IntVec& b);
IntVec VecSub(const IntVec& a, const IntVec& b);

}  // namespace ndc::ir
