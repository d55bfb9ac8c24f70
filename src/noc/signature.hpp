#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "noc/geometry.hpp"

namespace ndc::noc {

/// An L-bit route signature (Section 5.2.1, challenge 3): bit k is set iff
/// the route uses link k. Sized for meshes up to 8x8 (256 link slots).
class Signature {
 public:
  static constexpr int kMaxBits = 256;

  Signature() { words_.fill(0); }

  static Signature FromRoute(std::span<const sim::LinkId> route);

  void Set(sim::LinkId l) { words_[Word(l)] |= Mask(l); }
  bool Test(sim::LinkId l) const { return (words_[Word(l)] & Mask(l)) != 0; }

  /// Bitwise-and (the paper's S_x ∩ S_y).
  Signature Intersect(const Signature& o) const;

  /// Number of set bits ("number of 1s").
  int Popcount() const;

  /// Links present in the signature, ascending.
  std::vector<sim::LinkId> Links() const;

  friend bool operator==(const Signature&, const Signature&) = default;

  std::string ToString() const;

 private:
  static std::size_t Word(sim::LinkId l) { return static_cast<std::size_t>(l) / 64; }
  static std::uint64_t Mask(sim::LinkId l) { return 1ull << (static_cast<std::size_t>(l) % 64); }
  std::array<std::uint64_t, kMaxBits / 64> words_;
};

}  // namespace ndc::noc
