#include "align/myers.hpp"

#include <cstdlib>
#include <limits>

namespace gkgpu {

namespace {
constexpr std::size_t kAlphabet = 256;
constexpr int kW = 64;

std::size_t PeqIndex(std::size_t i, char c) {
  return (i / kW) * kAlphabet + static_cast<unsigned char>(c);
}
}  // namespace

int MyersAligner::Distance(std::string_view a, std::string_view b) {
  return DistanceWithin(a, b, std::numeric_limits<int>::max());
}

int MyersAligner::DistanceWithin(std::string_view a, std::string_view b,
                                 int k) {
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (k < 0 || std::abs(m - n) > k) return -1;
  if (m == 0) return n;
  if (n == 0) return m;
  const int nblocks = (m + kW - 1) / kW;
  const std::size_t peq_words = static_cast<std::size_t>(nblocks) * kAlphabet;
  if (peq_.size() < peq_words) peq_.resize(peq_words, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    peq_[PeqIndex(i, a[i])] |= std::uint64_t{1} << (i % kW);
  }
  blocks_.assign(static_cast<std::size_t>(nblocks),
                 Block{~std::uint64_t{0}, 0});
  // High bit of the last (possibly partial) block marks pattern row m.
  const std::uint64_t last_high =
      std::uint64_t{1} << ((m - 1) % kW);
  int score = m;
  for (int j = 0; j < n; ++j) {
    const auto c = static_cast<unsigned char>(b[static_cast<std::size_t>(j)]);
    int hin = 1;  // D[0][j] = j boundary: +1 enters the top block each column
    for (int bi = 0; bi < nblocks; ++bi) {
      Block& blk = blocks_[static_cast<std::size_t>(bi)];
      std::uint64_t eq = peq_[static_cast<std::size_t>(bi) * kAlphabet + c];
      const std::uint64_t pv = blk.pv;
      const std::uint64_t mv = blk.mv;
      const std::uint64_t xv = eq | mv;
      if (hin < 0) eq |= 1;
      const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      std::uint64_t ph = mv | ~(xh | pv);
      std::uint64_t mh = pv & xh;
      const std::uint64_t high =
          bi == nblocks - 1 ? last_high : (std::uint64_t{1} << (kW - 1));
      int hout = 0;
      if (ph & high) hout = 1;
      else if (mh & high) hout = -1;
      ph <<= 1;
      mh <<= 1;
      if (hin < 0) mh |= 1;
      else if (hin > 0) ph |= 1;
      blk.pv = mh | ~(xv | ph);
      blk.mv = ph & xv;
      hin = hout;
    }
    score += hin;  // hout of the last block adjusts D[m][j+1]
    if (score - (n - 1 - j) > k) break;
  }
  for (std::size_t i = 0; i < a.size(); ++i) peq_[PeqIndex(i, a[i])] = 0;
  return score <= k ? score : -1;
}

int MyersEditDistance(std::string_view a, std::string_view b) {
  MyersAligner aligner;
  return aligner.Distance(a, b);
}

}  // namespace gkgpu
