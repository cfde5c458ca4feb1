#include "simd/gatekeeper_batch.hpp"

#include "simd/bitops64.hpp"
#include "simd/dispatch.hpp"
#include "simd/window_gather.hpp"

namespace gkgpu::simd {

namespace {

int Count64(const U64* mask, int nwords, const GateKeeperParams& p) {
  if (p.count == CountMode::kPopcount) return PopcountWords64(mask, nwords);
  return CountOneRuns64(mask, nwords);
}

/// Reduced, amended, edge-fixed difference mask for `read` shifted by
/// `shift` bases against `ref` — GateKeeperMask on 64-bit words.  Only
/// called with shift != 0 from the improved pipeline, so the edge fix is
/// unconditional.
void Mask64(const U64* read, const U64* ref, int length, int shift,
            U64* mask) {
  const int enc64 = Words64(EncodedWords(length));
  const int mask64 = Words64(MaskWords(length));
  // An empty sequence has no mask words.  Returning here also shows the
  // compiler that the shift below writes `diff` before the XOR reads it
  // (gcc 12 reports it maybe-uninitialized under the sanitizers without
  // this); zero-initializing the scratch instead was measurably slower.
  if (enc64 <= 0) return;
  // The shift fully overwrites the scratch; the XOR runs in place.
  U64 diff[kMaxWords64];
  if (shift > 0) {
    ShiftToLater64(read, diff, enc64, 2 * shift);
  } else {
    ShiftToEarlier64(read, diff, enc64, -2 * shift);
  }
  XorWords64(diff, ref, diff, enc64);
  ReducePairsOr64(diff, length, mask);
  AmendShortZeroRuns64(mask, mask64);
  if (shift > 0) {
    SetBitRange64(mask, mask64, 0, shift);
  } else {
    SetBitRange64(mask, mask64, length + shift, length);
  }
}

/// 2-bit-domain difference mask (original pipeline), 64-bit words.
void Mask2Bit64(const U64* read, const U64* ref, int length, int shift,
                U64* mask) {
  const int enc64 = Words64(EncodedWords(length));
  U64 shifted[kMaxWords64];
  const U64* lhs = read;
  if (shift > 0) {
    ShiftToLater64(read, shifted, enc64, 2 * shift);
    lhs = shifted;
  } else if (shift < 0) {
    ShiftToEarlier64(read, shifted, enc64, -2 * shift);
    lhs = shifted;
  }
  XorWords64(lhs, ref, mask, enc64);
  ZeroTailBits64(mask, enc64, 2 * length);
  AmendShortZeroRuns64(mask, enc64);
}

FilterResult FiltrationOriginal64(const U64* read, const U64* ref, int length,
                                  int e, const GateKeeperParams& p) {
  const int enc64 = Words64(EncodedWords(length));
  U64 final_mask[kMaxWords64];
  XorWords64(read, ref, final_mask, enc64);
  ZeroTailBits64(final_mask, enc64, 2 * length);
  if (e == 0) {
    const int errors = Count64(final_mask, enc64, p);
    return {errors == 0, errors};
  }
  AmendShortZeroRuns64(final_mask, enc64);
  U64 mask[kMaxWords64];
  for (int k = 1; k <= e; ++k) {
    Mask2Bit64(read, ref, length, k, mask);
    AndWords64(final_mask, mask, enc64);
    Mask2Bit64(read, ref, length, -k, mask);
    AndWords64(final_mask, mask, enc64);
  }
  const int errors = Count64(final_mask, enc64, p);
  return {errors <= e, errors};
}

}  // namespace

FilterResult GateKeeperFiltration64(const Word* read_enc, const Word* ref_enc,
                                    int length, int e,
                                    const GateKeeperParams& params) {
  const int enc32 = EncodedWords(length);
  U64 read[kMaxWords64];
  U64 ref[kMaxWords64];
  PackWords64(read_enc, enc32, read);
  PackWords64(ref_enc, enc32, ref);
  if (params.mode == GateKeeperMode::kOriginal) {
    return FiltrationOriginal64(read, ref, length, e, params);
  }
  const int enc64 = Words64(enc32);
  const int mask64 = Words64(MaskWords(length));
  U64 final_mask[kMaxWords64];
  U64 diff[kMaxWords64];
  XorWords64(read, ref, diff, enc64);
  ReducePairsOr64(diff, length, final_mask);
  if (e == 0) {
    const int errors = Count64(final_mask, mask64, params);
    return {errors == 0, errors};
  }
  AmendShortZeroRuns64(final_mask, mask64);
  U64 mask[kMaxWords64];
  for (int k = 1; k <= e; ++k) {
    Mask64(read, ref, length, k, mask);
    AndWords64(final_mask, mask, mask64);
    Mask64(read, ref, length, -k, mask);
    AndWords64(final_mask, mask, mask64);
  }
  const int errors = Count64(final_mask, mask64, params);
  return {errors <= e, errors};
}

void GateKeeperFilterRangeScalar(const PairBlock& block, std::size_t begin,
                                 std::size_t end, int e,
                                 const GateKeeperParams& params,
                                 PairResult* results) {
  Word read_scratch[kMaxEncodedWords];
  Word ref_scratch[kMaxEncodedWords];
  for (std::size_t i = begin; i < end; ++i) {
    const BlockPairView p = LoadBlockPair(block, i, read_scratch, ref_scratch);
    if (p.bypass) {
      results[i] = BypassedPairResult();
      continue;
    }
    results[i] = MakePairResult(
        GateKeeperFiltration64(p.read, p.ref, block.length, e, params), false);
  }
}

void GateKeeperFilterRange(const PairBlock& block, std::size_t begin,
                           std::size_t end, int e,
                           const GateKeeperParams& params,
                           PairResult* results) {
  switch (ActiveLevel()) {
    case Level::kAvx512:
      GateKeeperFilterRangeAvx512(block, begin, end, e, params, results);
      break;
    case Level::kAvx2:
      GateKeeperFilterRangeAvx2(block, begin, end, e, params, results);
      break;
    default:
      GateKeeperFilterRangeScalar(block, begin, end, e, params, results);
      break;
  }
}

void LoadBlockGroup(const PairBlock& block, std::size_t i0, int lanes,
                    Word (*read_scratch)[kMaxEncodedWords],
                    Word (*ref_scratch)[kMaxEncodedWords],
                    BlockPairView* views) {
  if (!block.candidate_shape()) {
    for (int l = 0; l < lanes; ++l) {
      views[l] = LoadBlockPair(block, i0 + static_cast<std::size_t>(l),
                               read_scratch[l], ref_scratch[l]);
    }
    return;
  }
  // Candidate windows lie scattered over the genome, so each lane's
  // reference and N-mask words are a cache miss.  Prefetch the group two
  // ahead, so its loads are in flight while this group and the next one
  // are filtered.
  const std::size_t ahead = i0 + 2 * static_cast<std::size_t>(lanes);
  for (std::size_t i = ahead;
       i < ahead + static_cast<std::size_t>(lanes) && i < block.size; ++i) {
    const std::int64_t first = block.candidates[i].ref_pos;
    const std::int64_t last = first + block.length - 1;
    if (first < 0 || last >= block.ref_len) continue;
    __builtin_prefetch(block.ref_words + first / kBasesPerWord);
    __builtin_prefetch(block.ref_words + last / kBasesPerWord);
    __builtin_prefetch(block.ref_n_mask + first / kWordBits);
    __builtin_prefetch(block.ref_n_mask + last / kWordBits);
  }
  // All lanes' reference windows come out of the encoded genome in one
  // lane-parallel gather; the per-lane remainder is the bypass test and
  // the strand reorientation.
  std::int64_t starts[kMaxGroupLanes] = {};
  for (int l = 0; l < lanes; ++l) {
    starts[l] = block.candidates[i0 + static_cast<std::size_t>(l)].ref_pos;
  }
  ExtractWindowsAvx2(block.ref_words, block.ref_len, starts, lanes,
                     block.length, &ref_scratch[0][0], kMaxEncodedWords);
  for (int l = 0; l < lanes; ++l) {
    const CandidatePair c =
        block.candidates[i0 + static_cast<std::size_t>(l)];
    BlockPairView& v = views[l];
    v.bypass = (block.bypass != nullptr && block.bypass[c.read_index] != 0) ||
               RangeHasUnknownRaw(block.ref_n_mask, block.ref_len, c.ref_pos,
                                  block.length);
    v.ref = ref_scratch[l];
    const Word* read = block.reads_enc +
                       static_cast<std::size_t>(c.read_index) *
                           static_cast<std::size_t>(block.words_per_seq);
    if (c.strand != 0) {
      ReverseComplementEncoded(read, block.length, read_scratch[l]);
      read = read_scratch[l];
    }
    v.read = read;
  }
}

}  // namespace gkgpu::simd
