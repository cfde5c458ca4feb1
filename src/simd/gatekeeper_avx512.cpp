// AVX-512 GateKeeper batch kernel: eight filtrations per instruction
// stream.
//
// Same lane layout as the AVX2 kernel (simd/gatekeeper_avx2.cpp), one
// register width up: lane l of every zmm register holds pair
// (group_base + l)'s 64-bit word w, so the whole mask pipeline — shifts,
// XOR/AND/OR, 2-bit->1-bit reduction, amendment, edge fixes — runs
// lane-parallel with no cross-lane traffic, and only the final error
// count drops to scalar per lane.  The group tail (< 8 pairs) delegates
// to the AVX2 kernel rather than scalar: a host dispatching here always
// has AVX2.
//
// This file is compiled with -mavx512f -mavx512bw when the toolchain
// supports them (GKGPU_SIMD_AVX512); the function is only reached behind
// the runtime CPUID dispatch in simd/dispatch.cpp (avx512f + avx512bw,
// GKGPU_NO_AVX512 unset).  Without support it degrades to the AVX2
// variant so the symbol set stays identical.
#include "simd/gatekeeper_batch.hpp"

#include "simd/bitops64.hpp"
#include "simd/dispatch.hpp"

#if defined(GKGPU_SIMD_AVX512)
#include <immintrin.h>
#endif

namespace gkgpu::simd {

#if defined(GKGPU_SIMD_AVX512)

bool Avx512Compiled() { return true; }

namespace {

constexpr int kLanes = 8;
// Every 64-bit shift below is the zero-masked form under an all-ones mask:
// the same vpsrlq/vpsllq, but without the unmasked intrinsics'
// _mm512_undefined_epi32() passthrough that GCC 12 misreports as an
// uninitialized read (GCC bug 105593).
constexpr __mmask8 kAllLanes = 0xFF;

inline __m512i Srl(__m512i v, int n) {
  return _mm512_maskz_srl_epi64(kAllLanes, v, _mm_cvtsi32_si128(n));
}
inline __m512i Sll(__m512i v, int n) {
  return _mm512_maskz_sll_epi64(kAllLanes, v, _mm_cvtsi32_si128(n));
}

void VShiftToLater(const __m512i* src, __m512i* dst, int nwords, int bits) {
  const __m512i zero = _mm512_setzero_si512();
  const int word_off = bits / kWordBits64;
  const int bit_off = bits % kWordBits64;
  for (int i = nwords - 1; i >= 0; --i) {
    const int j = i - word_off;
    __m512i v = zero;
    if (bit_off == 0) {
      if (j >= 0) v = src[j];
    } else {
      if (j >= 0) v = Srl(src[j], bit_off);
      if (j - 1 >= 0) {
        v = _mm512_or_si512(v, Sll(src[j - 1], kWordBits64 - bit_off));
      }
    }
    dst[i] = v;
  }
}

void VShiftToEarlier(const __m512i* src, __m512i* dst, int nwords, int bits) {
  const __m512i zero = _mm512_setzero_si512();
  const int word_off = bits / kWordBits64;
  const int bit_off = bits % kWordBits64;
  for (int i = 0; i < nwords; ++i) {
    const int j = i + word_off;
    __m512i v = zero;
    if (bit_off == 0) {
      if (j < nwords) v = src[j];
    } else {
      if (j < nwords) v = Sll(src[j], bit_off);
      if (j + 1 < nwords) {
        v = _mm512_or_si512(v, Srl(src[j + 1], kWordBits64 - bit_off));
      }
    }
    dst[i] = v;
  }
}

inline void VXor(const __m512i* a, const __m512i* b, __m512i* dst,
                 int nwords) {
  for (int i = 0; i < nwords; ++i) dst[i] = _mm512_xor_si512(a[i], b[i]);
}

inline void VAnd(__m512i* dst, const __m512i* src, int nwords) {
  for (int i = 0; i < nwords; ++i) dst[i] = _mm512_and_si512(dst[i], src[i]);
}

/// CompressPairsOr64, lane-parallel.
inline __m512i VCompress(__m512i w) {
  __m512i t = _mm512_and_si512(
      _mm512_or_si512(w, _mm512_maskz_srli_epi64(kAllLanes, w, 1)),
      _mm512_set1_epi64(0x5555555555555555LL));
  t = _mm512_and_si512(
      _mm512_or_si512(t, _mm512_maskz_srli_epi64(kAllLanes, t, 1)),
      _mm512_set1_epi64(0x3333333333333333LL));
  t = _mm512_and_si512(
      _mm512_or_si512(t, _mm512_maskz_srli_epi64(kAllLanes, t, 2)),
      _mm512_set1_epi64(0x0F0F0F0F0F0F0F0FLL));
  t = _mm512_and_si512(
      _mm512_or_si512(t, _mm512_maskz_srli_epi64(kAllLanes, t, 4)),
      _mm512_set1_epi64(0x00FF00FF00FF00FFLL));
  t = _mm512_and_si512(
      _mm512_or_si512(t, _mm512_maskz_srli_epi64(kAllLanes, t, 8)),
      _mm512_set1_epi64(0x0000FFFF0000FFFFLL));
  t = _mm512_and_si512(
      _mm512_or_si512(t, _mm512_maskz_srli_epi64(kAllLanes, t, 16)),
      _mm512_set1_epi64(0x00000000FFFFFFFFLL));
  return t;
}

/// Zeroes every lane's bits at positions >= length_bits with per-word
/// broadcast constants.
void VZeroTail(__m512i* mask, int nwords, int length_bits) {
  for (int w = 0; w < nwords; ++w) {
    const U64 keep = ~RangeMask64(w, length_bits, nwords * kWordBits64);
    if (keep != ~U64{0}) {
      mask[w] = _mm512_and_si512(
          mask[w], _mm512_set1_epi64(static_cast<long long>(keep)));
    }
  }
}

/// ReducePairsOr64, lane-parallel: 2-bit diff -> 1-bit mask, tail zeroed.
void VReduce(const __m512i* diff, int length, __m512i* mask) {
  const int enc64 = Words64(EncodedWords(length));
  const int mask64 = Words64(MaskWords(length));
  const __m512i zero = _mm512_setzero_si512();
  for (int m = 0; m < mask64; ++m) {
    const int hi = 2 * m;
    const int lo = 2 * m + 1;
    __m512i w = _mm512_maskz_slli_epi64(
        kAllLanes, hi < enc64 ? VCompress(diff[hi]) : zero, 32);
    if (lo < enc64) w = _mm512_or_si512(w, VCompress(diff[lo]));
    mask[m] = w;
  }
  VZeroTail(mask, mask64, length);
}

void VSetRange(__m512i* mask, int nwords, int from, int to) {
  for (int w = 0; w < nwords; ++w) {
    const U64 m = RangeMask64(w, from, to);
    if (m != 0) {
      mask[w] = _mm512_or_si512(mask[w],
                                _mm512_set1_epi64(static_cast<long long>(m)));
    }
  }
}

/// Fused single-pass amendment (see AmendShortZeroRuns64): the four
/// shifted neighborhoods come from the original current/previous/next
/// words per iteration — no vector scratch arrays, one pass.
void VAmend(__m512i* mask, int nwords) {
  __m512i prev = _mm512_setzero_si512();
  for (int i = 0; i < nwords; ++i) {
    const __m512i cur = mask[i];
    const __m512i next =
        i + 1 < nwords ? mask[i + 1] : _mm512_setzero_si512();
    const __m512i l1 =
        _mm512_or_si512(_mm512_maskz_srli_epi64(kAllLanes, cur, 1),
                        _mm512_maskz_slli_epi64(kAllLanes, prev, 63));
    const __m512i l2 =
        _mm512_or_si512(_mm512_maskz_srli_epi64(kAllLanes, cur, 2),
                        _mm512_maskz_slli_epi64(kAllLanes, prev, 62));
    const __m512i r1 =
        _mm512_or_si512(_mm512_maskz_slli_epi64(kAllLanes, cur, 1),
                        _mm512_maskz_srli_epi64(kAllLanes, next, 63));
    const __m512i r2 =
        _mm512_or_si512(_mm512_maskz_slli_epi64(kAllLanes, cur, 2),
                        _mm512_maskz_srli_epi64(kAllLanes, next, 62));
    const __m512i amend = _mm512_or_si512(
        _mm512_and_si512(l1, _mm512_or_si512(r1, r2)),
        _mm512_and_si512(l2, r1));
    mask[i] = _mm512_or_si512(cur, amend);
    prev = cur;
  }
}

/// Word `w` of eight per-pair arrays, transposed into one register (lane
/// l = pair l).
inline __m512i Lanes(const U64 (*rows)[kMaxWords64], int w) {
  return _mm512_set_epi64(static_cast<long long>(rows[7][w]),
                          static_cast<long long>(rows[6][w]),
                          static_cast<long long>(rows[5][w]),
                          static_cast<long long>(rows[4][w]),
                          static_cast<long long>(rows[3][w]),
                          static_cast<long long>(rows[2][w]),
                          static_cast<long long>(rows[1][w]),
                          static_cast<long long>(rows[0][w]));
}

/// Counts each lane of the finished mask with the scalar 64-bit counters.
void CountLanes(const __m512i* mask, int nwords, const GateKeeperParams& p,
                int* errors) {
  alignas(64) U64 out[kMaxWords64 * kLanes];
  for (int w = 0; w < nwords; ++w) {
    _mm512_store_si512(reinterpret_cast<__m512i*>(out + w * kLanes), mask[w]);
  }
  for (int l = 0; l < kLanes; ++l) {
    errors[l] = p.count == CountMode::kPopcount
                    ? PopcountWords64(out + l, nwords, kLanes)
                    : CountOneRuns64(out + l, nwords, kLanes);
  }
}

/// The improved (GateKeeper-GPU) pipeline over one 8-lane group.
void ImprovedGroup(const U64 (*reads)[kMaxWords64],
                   const U64 (*refs)[kMaxWords64], int length, int e,
                   const GateKeeperParams& p, int* errors) {
  const int enc64 = Words64(EncodedWords(length));
  const int mask64 = Words64(MaskWords(length));
  __m512i R[kMaxWords64], G[kMaxWords64];
  for (int w = 0; w < enc64; ++w) {
    R[w] = Lanes(reads, w);
    G[w] = Lanes(refs, w);
  }
  __m512i diff[kMaxWords64], final_mask[kMaxWords64], mask[kMaxWords64],
      shifted[kMaxWords64];
  VXor(R, G, diff, enc64);
  VReduce(diff, length, final_mask);
  if (e > 0) {
    VAmend(final_mask, mask64);
    for (int k = 1; k <= e; ++k) {
      VShiftToLater(R, shifted, enc64, 2 * k);
      VXor(shifted, G, diff, enc64);
      VReduce(diff, length, mask);
      VAmend(mask, mask64);
      VSetRange(mask, mask64, 0, k);  // leading bits vacated by the deletion
      VAnd(final_mask, mask, mask64);
      VShiftToEarlier(R, shifted, enc64, 2 * k);
      VXor(shifted, G, diff, enc64);
      VReduce(diff, length, mask);
      VAmend(mask, mask64);
      VSetRange(mask, mask64, length - k, length);  // trailing (insertion)
      VAnd(final_mask, mask, mask64);
    }
  }
  CountLanes(final_mask, mask64, p, errors);
}

/// The original (FPGA/SHD) pipeline in the 2-bit mask domain.
void OriginalGroup(const U64 (*reads)[kMaxWords64],
                   const U64 (*refs)[kMaxWords64], int length, int e,
                   const GateKeeperParams& p, int* errors) {
  const int enc64 = Words64(EncodedWords(length));
  __m512i R[kMaxWords64], G[kMaxWords64];
  for (int w = 0; w < enc64; ++w) {
    R[w] = Lanes(reads, w);
    G[w] = Lanes(refs, w);
  }
  __m512i final_mask[kMaxWords64], mask[kMaxWords64], shifted[kMaxWords64];
  VXor(R, G, final_mask, enc64);
  VZeroTail(final_mask, enc64, 2 * length);
  if (e > 0) {
    VAmend(final_mask, enc64);
    for (int k = 1; k <= e; ++k) {
      for (const int shift : {k, -k}) {
        if (shift > 0) {
          VShiftToLater(R, shifted, enc64, 2 * shift);
        } else {
          VShiftToEarlier(R, shifted, enc64, -2 * shift);
        }
        VXor(shifted, G, mask, enc64);
        VZeroTail(mask, enc64, 2 * length);
        VAmend(mask, enc64);
        VAnd(final_mask, mask, enc64);
      }
    }
  }
  CountLanes(final_mask, enc64, p, errors);
}

}  // namespace

void GateKeeperFilterRangeAvx512(const PairBlock& block, std::size_t begin,
                                 std::size_t end, int e,
                                 const GateKeeperParams& params,
                                 PairResult* results) {
  Word read_scratch[kLanes][kMaxEncodedWords];
  Word ref_scratch[kLanes][kMaxEncodedWords];
  BlockPairView views[kLanes];
  const int enc32 = EncodedWords(block.length);
  std::size_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    U64 reads[kLanes][kMaxWords64];
    U64 refs[kLanes][kMaxWords64];
    bool bypass[kLanes];
    bool all_bypassed = true;
    LoadBlockGroup(block, i, kLanes, read_scratch, ref_scratch, views);
    for (int l = 0; l < kLanes; ++l) {
      bypass[l] = views[l].bypass;
      all_bypassed = all_bypassed && views[l].bypass;
      PackWords64(views[l].read, enc32, reads[l]);
      PackWords64(views[l].ref, enc32, refs[l]);
    }
    if (all_bypassed) {
      for (int l = 0; l < kLanes; ++l) {
        results[i + static_cast<std::size_t>(l)] = BypassedPairResult();
      }
      continue;
    }
    int errors[kLanes];
    if (params.mode == GateKeeperMode::kOriginal) {
      OriginalGroup(reads, refs, block.length, e, params, errors);
    } else {
      ImprovedGroup(reads, refs, block.length, e, params, errors);
    }
    for (int l = 0; l < kLanes; ++l) {
      results[i + static_cast<std::size_t>(l)] =
          bypass[l] ? BypassedPairResult()
                    : MakePairResult({errors[l] <= e, errors[l]}, false);
    }
  }
  if (i < end) {
    GateKeeperFilterRangeAvx2(block, i, end, e, params, results);
  }
}

#else  // !GKGPU_SIMD_AVX512

bool Avx512Compiled() { return false; }

void GateKeeperFilterRangeAvx512(const PairBlock& block, std::size_t begin,
                                 std::size_t end, int e,
                                 const GateKeeperParams& params,
                                 PairResult* results) {
  GateKeeperFilterRangeAvx2(block, begin, end, e, params, results);
}

#endif  // GKGPU_SIMD_AVX512

}  // namespace gkgpu::simd
