// AVX-512 form of the fused verification kernel (align/banded_bv.hpp):
// lane l of every zmm register is candidate l's 64-bit band, so the whole
// bit-vector recurrence, the diagonal score and the per-column stores run
// eight candidates per instruction stream, with no cross-lane traffic.
//
// The match vector of column j comes from 2-bit planes instead of
// per-base masks: the read's high and low code bits, pre-shifted by k + 1
// so the band is (plane >> j) (one uniform funnel shift for all lanes),
// compared against the window base's code bits, which select per lane
// through mask registers; a window byte outside "ACGT" zeroes its lane's
// match vector.  Rows outside 1..m read as 'A' there, which is harmless:
// rows above 1 hold D[i][j] = j - i whatever matches, and rows below m
// never feed a row above them.
//
// Compiled with -mavx512f -mavx512bw when the toolchain supports them
// (GKGPU_SIMD_AVX512); BandedBvVerifier calls it only when the CPU has
// them too.
#include "align/banded_bv_kernel.hpp"

#if defined(GKGPU_SIMD_AVX512)
#include <immintrin.h>
#endif

namespace gkgpu::bv_detail {

#if defined(GKGPU_SIMD_AVX512)

bool BandedBvAvx512Compiled() { return true; }

namespace {

// Every shift below is the zero-masked form under an all-ones mask: the
// same instruction without the unmasked intrinsics' undefined passthrough
// that GCC 12 misreports as an uninitialized read (GCC bug 105593).
constexpr __mmask8 kAllLanes = 0xFF;

/// The low n bits set, n clamped to [0, 64].
inline std::uint64_t LowBits(int n) {
  if (n <= 0) return 0;
  if (n >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << n) - 1;
}

/// Bit p of word p / 64 set where s[p] (p < m <= 128) is in `hi`, `lo`
/// and "ACGT" respectively: the 2-bit code planes plus validity.
struct BytePlanes {
  std::uint64_t hi[2] = {};  // 'G' or 'T'
  std::uint64_t lo[2] = {};  // 'C' or 'T'
  std::uint64_t acgt[2] = {};
};

BytePlanes PlanesOf(const char* s, int m) {
  BytePlanes out;
  for (int w = 0; w < 2 && 64 * w < m; ++w) {
    const __mmask64 live = LowBits(m - 64 * w);
    const __m512i bytes = _mm512_maskz_loadu_epi8(live, s + 64 * w);
    const auto is = [&](char base) {
      return _mm512_mask_cmpeq_epi8_mask(live, bytes, _mm512_set1_epi8(base));
    };
    const __mmask64 a = is('A');
    const __mmask64 c = is('C');
    const __mmask64 g = is('G');
    const __mmask64 t = is('T');
    out.hi[w] = g | t;
    out.lo[w] = c | t;
    out.acgt[w] = a | c | g | t;
  }
  return out;
}

inline __m512i Broadcast(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// Lane-wise low word of (hi:lo) >> s for a uniform s in [0, 64), given
/// down = s and across = 64 - s (a count of 64 shifts to zero).
inline __m512i Funnel(const std::uint64_t* lo, const std::uint64_t* hi,
                      __m128i down, __m128i across) {
  return _mm512_or_si512(
      _mm512_maskz_srl_epi64(kAllLanes, _mm512_load_si512(lo), down),
      _mm512_maskz_sll_epi64(kAllLanes, _mm512_load_si512(hi), across));
}

/// Lanes whose word in `plane` has `bit` set.
inline __mmask8 Test(const std::uint64_t* plane, __m512i bit) {
  return _mm512_test_epi64_mask(_mm512_load_si512(plane), bit);
}

// _mm512_ternarylogic_epi64 truth tables over operands (A, B, C).
constexpr int kNotAOrB = 0x03;     // ~(A | B)
constexpr int kAXorBOrC = 0xBE;    // (A ^ B) | C
constexpr int kAOrNotBOrC = 0xF1;  // A | ~(B | C)

}  // namespace

bool BandedBvAvx512(const Group& g, int* distance, std::uint64_t* columns) {
  const int m = g.m;
  const int k = g.k;
  // Read planes shifted up by k + 1 (bits up to 159: three words plus a
  // zero word for the funnel's upper read); window planes by column - 1.
  alignas(64) std::uint64_t rh[4][kLanes] = {};
  alignas(64) std::uint64_t rl[4][kLanes] = {};
  alignas(64) std::uint64_t th[2][kLanes] = {};
  alignas(64) std::uint64_t tl[2][kLanes] = {};
  alignas(64) std::uint64_t tv[2][kLanes] = {};
  const int up = k + 1;  // 2..32
  const std::uint64_t full_lo = LowBits(m);
  const std::uint64_t full_hi = LowBits(m - 64);
  for (int l = 0; l < g.lanes; ++l) {
    if (l > 0 && g.read[l] == g.read[l - 1]) {
      for (int w = 0; w < 4; ++w) {
        rh[w][l] = rh[w][l - 1];
        rl[w][l] = rl[w][l - 1];
      }
    } else {
      const BytePlanes r = PlanesOf(g.read[l], m);
      if (r.acgt[0] != full_lo || r.acgt[1] != full_hi) return false;
      rh[0][l] = r.hi[0] << up;
      rh[1][l] = (r.hi[0] >> (64 - up)) | (r.hi[1] << up);
      rh[2][l] = r.hi[1] >> (64 - up);
      rl[0][l] = r.lo[0] << up;
      rl[1][l] = (r.lo[0] >> (64 - up)) | (r.lo[1] << up);
      rl[2][l] = r.lo[1] >> (64 - up);
    }
    const BytePlanes t = PlanesOf(g.window[l], m);
    for (int w = 0; w < 2; ++w) {
      th[w][l] = t.hi[w];
      tl[w][l] = t.lo[w];
      tv[w][l] = t.acgt[w];
    }
  }

  const __m512i ones = Broadcast(~std::uint64_t{0});
  const __m512i one = Broadcast(1);
  const __m512i diag_bit = Broadcast(std::uint64_t{1} << k);
  const __m512i limit = Broadcast(static_cast<std::uint64_t>(k));
  __m512i pv = Broadcast(~std::uint64_t{0} << (k + 1));
  __m512i mv = Broadcast((std::uint64_t{1} << (k + 1)) - 1);
  __m512i score = _mm512_setzero_si512();
  __mmask8 live = static_cast<__mmask8>((1u << g.lanes) - 1);
  for (int j = 1; j <= m; ++j) {
    // The read planes' band, (plane >> j); no branch on word boundaries.
    const int w = j >> 6;
    const __m128i down = _mm_cvtsi32_si128(j & 63);
    const __m128i across = _mm_cvtsi32_si128(64 - (j & 63));
    const __m512i h = Funnel(rh[w], rh[w + 1], down, across);
    const __m512i lo = Funnel(rl[w], rl[w + 1], down, across);
    // Window base j - 1 of each lane, as masks.
    const int tw = (j - 1) >> 6;
    const __m512i tbit = Broadcast(std::uint64_t{1} << ((j - 1) & 63));
    const __mmask8 text_hi = Test(th[tw], tbit);
    const __mmask8 text_lo = Test(tl[tw], tbit);
    const __mmask8 text_ok = Test(tv[tw], tbit);
    // eq = ~((h ^ text_hi) | (lo ^ text_lo)) where the window base is a
    // base at all.
    const __m512i hx = _mm512_mask_xor_epi64(h, text_hi, h, ones);
    const __m512i lx = _mm512_mask_xor_epi64(lo, text_lo, lo, ones);
    const __m512i eq =
        _mm512_maskz_ternarylogic_epi64(text_ok, hx, lx, lx, kNotAOrB);

    pv = _mm512_maskz_srli_epi64(kAllLanes, pv, 1);
    mv = _mm512_maskz_srli_epi64(kAllLanes, mv, 1);
    const __m512i xv = _mm512_or_si512(eq, mv);
    const __m512i sum = _mm512_add_epi64(_mm512_and_si512(eq, pv), pv);
    const __m512i xh = _mm512_ternarylogic_epi64(sum, pv, eq, kAXorBOrC);
    __m512i ph = _mm512_ternarylogic_epi64(mv, xh, pv, kAOrNotBOrC);
    __m512i mh = _mm512_and_si512(pv, xh);
    const __m512i diag = _mm512_ternarylogic_epi64(xh, mv, mv, kNotAOrB);
    const __mmask8 up = _mm512_test_epi64_mask(diag, diag_bit);
    score = _mm512_mask_add_epi64(score, up, score, one);
    ph = _mm512_or_si512(_mm512_maskz_slli_epi64(kAllLanes, ph, 1), one);
    mh = _mm512_maskz_slli_epi64(kAllLanes, mh, 1);
    pv = _mm512_ternarylogic_epi64(mh, xv, ph, kAOrNotBOrC);
    mv = _mm512_and_si512(ph, xv);
    std::uint64_t* col = columns + (j - 1) * std::size_t{kColumnWords};
    _mm512_storeu_si512(col, pv);
    _mm512_storeu_si512(col + kLanes, diag);
    live = _mm512_mask_cmple_epu64_mask(live, score, limit);
    if (live == 0) break;
  }
  alignas(64) std::uint64_t scores[kLanes];
  _mm512_store_si512(scores, score);
  for (int l = 0; l < g.lanes; ++l) {
    distance[l] = ((live >> l) & 1) != 0 ? static_cast<int>(scores[l]) : -1;
  }
  return true;
}

#else  // !GKGPU_SIMD_AVX512

bool BandedBvAvx512Compiled() { return false; }

bool BandedBvAvx512(const Group&, int*, std::uint64_t*) { return false; }

#endif  // GKGPU_SIMD_AVX512

}  // namespace gkgpu::bv_detail
