// Thresholded edit distance for the mapper's verification stage (mrFAST
// verifies candidate mappings against an edit-distance threshold e, so
// "exact if <= e, else reject" suffices for an exact accept/reject
// decision).  BandedEditDistance is the Ukkonen banded int DP, kept as the
// reference; BandedVerifier is the bit-vector form the hot loops call.
#ifndef GKGPU_ALIGN_BANDED_HPP
#define GKGPU_ALIGN_BANDED_HPP

#include <string_view>

#include "align/myers.hpp"

namespace gkgpu {

/// Exact edit distance if it is <= k, otherwise -1 ("more than k").
/// O((2k+1) * max(m,n)) time.
int BandedEditDistance(std::string_view a, std::string_view b, int k);

/// The verification hot loop: Myers/Hyyrö bit-vector edit distance with
/// an early exit once the distance provably exceeds k, several times
/// cheaper per pair than the int DP.  One instance per worker thread
/// reuses its pattern tables over millions of pairs (the streaming
/// pipeline's verify stage churns one call per filter-accepted pair).
/// Not thread-safe; results identical to BandedEditDistance, which stays
/// the reference the tests compare against.
class BandedVerifier {
 public:
  int Distance(std::string_view a, std::string_view b, int k);

 private:
  MyersAligner myers_;
};

/// Convenience accept test used by verification: edit(a, b) <= k.
inline bool WithinEditDistance(std::string_view a, std::string_view b, int k) {
  return BandedEditDistance(a, b, k) >= 0;
}

}  // namespace gkgpu

#endif  // GKGPU_ALIGN_BANDED_HPP
