// Myers' bit-vector algorithm for exact global edit distance (Myers 1999,
// with Hyyrö's block formulation).  This is the functional equivalent of
// Edlib's EDLIB_MODE_NW, which the paper uses as the accuracy ground truth:
// "we hold Edlib's global alignment results as the ground truth".
//
// MyersAligner keeps reusable pattern-preprocessing buffers so the accuracy
// benches can score hundreds of thousands of pairs without reallocation.
#ifndef GKGPU_ALIGN_MYERS_HPP
#define GKGPU_ALIGN_MYERS_HPP

#include <cstdint>
#include <string_view>
#include <vector>

namespace gkgpu {

class MyersAligner {
 public:
  /// Exact global (NW) edit distance between pattern a and text b.
  int Distance(std::string_view a, std::string_view b);

  /// Edit distance if <= k, else -1 (same contract as BandedEditDistance).
  /// Stops scanning the text as soon as the distance provably exceeds k:
  /// D[m][n] >= D[m][j] - (n - j), since each text column lowers the last
  /// row by at most one.
  int DistanceWithin(std::string_view a, std::string_view b, int k);

 private:
  struct Block {
    std::uint64_t pv;  // vertical positive deltas
    std::uint64_t mv;  // vertical negative deltas
  };

  // peq_[b * 256 + c]: bit i set when pattern[b*64 + i] == character c.
  // All zero between calls: each call sets its pattern's bits and clears
  // exactly those again, so no call pays for a 256 x blocks reset.
  std::vector<std::uint64_t> peq_;
  std::vector<Block> blocks_;
};

/// One-shot convenience wrapper.
int MyersEditDistance(std::string_view a, std::string_view b);

}  // namespace gkgpu

#endif  // GKGPU_ALIGN_MYERS_HPP
