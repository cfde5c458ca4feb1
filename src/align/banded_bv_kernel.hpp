// Private interface between BandedBvVerifier (align/banded_bv.cpp) and
// its AVX-512 column loop (simd/banded_bv_avx512.cpp, a separate
// translation unit built with -mavx512f -mavx512bw).
#ifndef GKGPU_ALIGN_BANDED_BV_KERNEL_HPP
#define GKGPU_ALIGN_BANDED_BV_KERNEL_HPP

#include <cstdint>

#include "align/banded_bv.hpp"

namespace gkgpu::bv_detail {

inline constexpr int kLanes = BandedBvVerifier::kLanes;
/// Words per stored column: Pv of the eight lanes, then their diagonal
/// +1 deltas.
inline constexpr int kColumnWords = 2 * kLanes;

/// One kernel call: lanes[0, lanes) of equal length m, threshold k.
struct Group {
  const char* read[kLanes] = {};
  const char* window[kLanes] = {};
  int lanes = 0;
  int m = 0;
  int k = 0;
};

/// The eight-lane column loop.  Sets distance[l] for l < g.lanes and
/// stores columns 1..m (Pv at [(j-1) * kColumnWords + l], diagonal deltas
/// kLanes words later) for every lane still within k at the end.  Returns
/// false, computing nothing, when a read holds a byte outside "ACGT".
/// Only callable when BandedBvAvx512Compiled().
bool BandedBvAvx512(const Group& g, int* distance, std::uint64_t* columns);
bool BandedBvAvx512Compiled();

}  // namespace gkgpu::bv_detail

#endif  // GKGPU_ALIGN_BANDED_BV_KERNEL_HPP
