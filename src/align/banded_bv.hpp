// The fused verification kernel: Hyyrö's banded form of Myers' bit-vector
// edit distance, with the 2k+1 diagonal band of one column held in a
// single uint64_t, run over up to eight (read, window) candidates at once
// and followed, for confirmed candidates, by a CIGAR traceback from the
// stored per-column bit-vectors (the Edlib approach) instead of a second
// DP.  One call replaces MyersAligner::DistanceWithin + BandedAlign per
// candidate and produces the same distance and the same CIGAR bytes.
//
// Band layout: at text column j (window base j, 1-based), bit t of the
// vertical-delta vectors Pv/Mv stands for read row j - k + t, so the main
// diagonal sits at bit k and each column shifts the band one row down.
// The lane carries all 64 rows from row j - k down, not only the 2k + 1
// of the band, and each cell's value is the cost of a real path — at
// worst an overestimate — with one exception: the row entering at bit 63
// starts at vertical delta 0.  That cell is only ever read as
// D[r][j-1] + 1 = D[r-1][j-1] + 1, which never beats the diagonal
// candidate D[r-1][j-1] + mismatch, so it needs no setup.  The horizontal
// delta fed in above the band is +1, again a real path's cost.  Every
// cell whose true value is <= k (every cell of a path of cost <= k) thus
// comes out exact.  Rows above row 0 start at delta -1, which makes
// D[0][j] = j.  D along the main diagonal never decreases, so a lane
// stops as soon as D[j][j] > k.
//
// The traceback replays BandedAlign's tie order (M if D(i-1,j-1) +
// mismatch == cur, else I if D(i-1,j) + 1 == cur, else D) from two stored
// words per column: Pv (vertical +1 deltas: the I test) and the diagonal
// +1 deltas (the M test).  Cells an optimal path can reach are exact in
// any band >= their value, and a cell whose true value exceeds the path's
// never satisfies a test in either implementation, so the CIGAR equals
// BandedAlign(read, window, distance)'s byte for byte.
//
// Eligible lanes: read length == window length in [1, kMaxLength], k in
// [1, kMaxThreshold], read bytes in "ACGT".  The window may hold anything
// (N, lowercase): a byte outside "ACGT" matches no read base, exactly as
// in the byte-comparing reference aligners.  Callers route ineligible
// candidates to MyersAligner / BandedAlign.
#ifndef GKGPU_ALIGN_BANDED_BV_HPP
#define GKGPU_ALIGN_BANDED_BV_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simd/dispatch.hpp"

namespace gkgpu {

/// One candidate of a kernel call.  `read`/`window` are inputs; the call
/// sets `distance` (edit distance if <= k, else -1) and, for a confirmed
/// lane with a non-null `cigar`, writes its CIGAR there.
struct BvLane {
  std::string_view read;
  std::string_view window;
  std::string* cigar = nullptr;
  int distance = -1;
};

class BandedBvVerifier {
 public:
  static constexpr int kLanes = 8;
  static constexpr int kMaxLength = 128;
  static constexpr int kMaxThreshold = 31;

  /// `level` picks the tier: kAvx512 runs eight lanes per instruction
  /// stream (when the binary and the CPU have it), anything else runs the
  /// portable one-lane form.  Tests pass a level to cover every tier.
  explicit BandedBvVerifier(simd::Level level = simd::ActiveLevel());

  BandedBvVerifier(const BandedBvVerifier&) = delete;
  BandedBvVerifier& operator=(const BandedBvVerifier&) = delete;

  /// True when every byte of `read` is one of "ACGT".
  static bool AcgtOnly(std::string_view read);

  /// True when a candidate whose read passes AcgtOnly can take the kernel.
  static bool Eligible(std::size_t read_length, std::size_t window_length,
                       int k) {
    return read_length == window_length && read_length >= 1 &&
           read_length <= static_cast<std::size_t>(kMaxLength) && k >= 1 &&
           k <= kMaxThreshold;
  }

  /// Verifies lanes[0, n), 1 <= n <= kLanes, at threshold k.  Every lane
  /// must be eligible and all n reads must have the same length; throws
  /// std::invalid_argument otherwise.
  void Verify(BvLane* lanes, int n, int k);

  /// True when Verify runs the eight-lane AVX-512 form.
  bool vectorized() const { return vectorized_; }

 private:
  bool vectorized_;
  // Pv and the diagonal-delta word of every column, [column][word][lane]:
  // 2 x 8 words per column, 16 KiB at the 128-column maximum.  Owned per
  // verifier (one per verify worker), reused across calls.
  std::vector<std::uint64_t> columns_;
};

}  // namespace gkgpu

#endif  // GKGPU_ALIGN_BANDED_BV_HPP
