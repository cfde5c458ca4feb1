#include "encode/revcomp.hpp"

#include <cstdint>

namespace gkgpu {

std::string ReverseComplement(std::string_view seq) {
  std::string out;
  ReverseComplementInto(seq, &out);
  return out;
}

void ReverseComplementInto(std::string_view seq, std::string* out) {
  out->resize(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    (*out)[i] = ComplementBase(seq[seq.size() - 1 - i]);
  }
}

namespace {

/// Reverses the order of the sixteen 2-bit bases of a word and complements
/// each one (A<->T, C<->G is a bit flip of the code).
inline Word ReverseComplementWord(Word w) {
  w = __builtin_bswap32(w);
  w = ((w >> 4) & 0x0F0F0F0Fu) | ((w & 0x0F0F0F0Fu) << 4);
  w = ((w >> 2) & 0x33333333u) | ((w & 0x33333333u) << 2);
  return ~w;
}

}  // namespace

void ReverseComplementEncoded(const Word* in, int length, Word* out) {
  // Reverse-complementing whole words puts the input's pad slots (the
  // low bits of its last word) in front of the real bases; one funnel
  // shift by the pad moves the bases to the front and zero-fills the
  // output's pad.
  const int nwords = EncodedWords(length);
  const int pad_bits = 2 * (nwords * kBasesPerWord - length);
  for (int k = 0; k < nwords; ++k) {
    out[k] = ReverseComplementWord(in[nwords - 1 - k]);
  }
  for (int k = 0; k < nwords; ++k) {
    const std::uint64_t next = k + 1 < nwords ? out[k + 1] : 0;
    const std::uint64_t pair = (std::uint64_t{out[k]} << kWordBits) | next;
    out[k] = static_cast<Word>(pair >> (kWordBits - pad_bits));
  }
}

}  // namespace gkgpu
