#include "noc/signature.hpp"

#include <sstream>

namespace ndc::noc {

Signature Signature::FromRoute(std::span<const sim::LinkId> route) {
  Signature s;
  for (sim::LinkId l : route) s.Set(l);
  return s;
}

Signature Signature::Intersect(const Signature& o) const {
  Signature r;
  for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] = words_[i] & o.words_[i];
  return r;
}

int Signature::Popcount() const {
  int n = 0;
  for (std::uint64_t w : words_) n += std::popcount(w);
  return n;
}

std::vector<sim::LinkId> Signature::Links() const {
  std::vector<sim::LinkId> out;
  for (int l = 0; l < kMaxBits; ++l) {
    if (Test(l)) out.push_back(l);
  }
  return out;
}

std::string Signature::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (sim::LinkId l : Links()) {
    if (!first) os << ",";
    os << l;
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace ndc::noc
