// Tests for 2-bit encoding, batch encoding, reference encoding with 'N'
// masks, and arbitrary-offset segment extraction.
#include "encode/encoded.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "encode/dna.hpp"
#include "encode/revcomp.hpp"
#include "sim/genome.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace gkgpu {
namespace {

std::string RandomSeq(Rng& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
  return s;
}

TEST(DnaTest, CodesMatchGateKeeperEncoding) {
  EXPECT_EQ(BaseToCode('A'), 0u);
  EXPECT_EQ(BaseToCode('C'), 1u);
  EXPECT_EQ(BaseToCode('G'), 2u);
  EXPECT_EQ(BaseToCode('T'), 3u);
  EXPECT_EQ(BaseToCode('a'), 0u);
  EXPECT_EQ(BaseToCode('N'), 4u);
  EXPECT_EQ(BaseToCode('x'), 4u);
  EXPECT_TRUE(ContainsUnknown("ACGTN"));
  EXPECT_FALSE(ContainsUnknown("ACGT"));
}

TEST(EncodeTest, RoundTrip) {
  Rng rng(5);
  for (const int length : {1, 15, 16, 17, 100, 150, 250, 300, 511, 512}) {
    const std::string seq = RandomSeq(rng, static_cast<std::size_t>(length));
    Word enc[kMaxEncodedWords];
    EXPECT_FALSE(EncodeSequence(seq, enc));
    EXPECT_EQ(DecodeSequence(enc, length), seq) << "length " << length;
  }
}

TEST(EncodeTest, FirstBaseLandsInMsb) {
  Word enc[1];
  EncodeSequence("T", enc);
  EXPECT_EQ(enc[0], 0xC0000000u);
  EncodeSequence("C", enc);
  EXPECT_EQ(enc[0], 0x40000000u);
}

TEST(EncodeTest, UnknownBasesReportedAndEncodedAsA) {
  Word enc[kMaxEncodedWords];
  EXPECT_TRUE(EncodeSequence("ACGNT", enc));
  EXPECT_EQ(DecodeSequence(enc, 5), "ACGAT");
}

TEST(EncodeTest, PadBitsAreZero) {
  Word enc[2] = {0xFFFFFFFFu, 0xFFFFFFFFu};
  EncodeSequence("TTTTTTTTTTTTTTTTT", enc);  // 17 bases -> 2 words
  // Bases 17..31 of word 1 must be zeroed.
  for (int i = 17; i < 32; ++i) EXPECT_EQ(GetBase2Bit(enc, i), 0u) << i;
}

TEST(EncodeTest, BatchEncodeMatchesSingleWithAndWithoutPool) {
  Rng rng(17);
  const int length = 100;
  std::vector<std::string> seqs;
  for (int i = 0; i < 500; ++i) {
    seqs.push_back(RandomSeq(rng, length));
  }
  seqs[123][50] = 'N';
  ThreadPool pool(4);
  const EncodedBatch serial = EncodeBatch(seqs, length, nullptr);
  const EncodedBatch parallel = EncodeBatch(seqs, length, &pool);
  ASSERT_EQ(serial.size(), seqs.size());
  EXPECT_EQ(serial.words, parallel.words);
  EXPECT_EQ(serial.has_n, parallel.has_n);
  EXPECT_EQ(serial.has_n[123], 1);
  EXPECT_EQ(serial.has_n[122], 0);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    std::string expected = seqs[i];
    for (auto& c : expected) {
      if (BaseToCode(c) >= 4) c = 'A';
    }
    EXPECT_EQ(DecodeSequence(serial.Sequence(i), length), expected) << i;
  }
}

TEST(ReferenceEncodingTest, ExtractSegmentAtEveryOffset) {
  Rng rng(23);
  const std::string genome = RandomSeq(rng, 4096);
  const ReferenceEncoding ref = EncodeReference(genome);
  for (const int length : {20, 100, 150, 250}) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::int64_t start = static_cast<std::int64_t>(
          rng.Uniform(genome.size() - static_cast<std::size_t>(length)));
      Word seg[kMaxEncodedWords];
      ref.ExtractSegment(start, length, seg);
      EXPECT_EQ(DecodeSequence(seg, length),
                genome.substr(static_cast<std::size_t>(start),
                              static_cast<std::size_t>(length)))
          << "start " << start << " length " << length;
    }
  }
}

TEST(ReferenceEncodingTest, ExtractedSegmentEqualsDirectEncoding) {
  // The kernel compares extracted segments against encoded reads word-for-
  // word, so extraction must produce the exact padded encoding.
  Rng rng(29);
  const std::string genome = RandomSeq(rng, 2000);
  const ReferenceEncoding ref = EncodeReference(genome);
  for (int trial = 0; trial < 100; ++trial) {
    const int length = 100;
    const std::int64_t start =
        static_cast<std::int64_t>(rng.Uniform(genome.size() - length));
    Word via_extract[kMaxEncodedWords];
    ref.ExtractSegment(start, length, via_extract);
    Word direct[kMaxEncodedWords];
    EncodeSequence(
        std::string_view(genome).substr(static_cast<std::size_t>(start),
                                        length),
        direct);
    for (int w = 0; w < EncodedWords(length); ++w) {
      ASSERT_EQ(via_extract[w], direct[w]) << "start " << start << " word "
                                           << w;
    }
  }
}

TEST(ReferenceEncodingTest, NMaskTracksUnknownRanges) {
  std::string genome = "ACGTACGTACGTACGTACGTACGTACGTACGT";  // 32 bases
  genome[10] = 'N';
  genome[25] = 'N';
  const ReferenceEncoding ref = EncodeReference(genome);
  EXPECT_TRUE(ref.RangeHasUnknown(8, 5));    // covers 10
  EXPECT_FALSE(ref.RangeHasUnknown(11, 10)); // 11..20
  EXPECT_TRUE(ref.RangeHasUnknown(20, 10));  // covers 25
  EXPECT_FALSE(ref.RangeHasUnknown(0, 10));
  // Out of range counts as unknown.
  EXPECT_TRUE(ref.RangeHasUnknown(-1, 5));
  EXPECT_TRUE(ref.RangeHasUnknown(30, 5));
}

TEST(ReferenceEncodingTest, ParallelEncodingMatchesSerial) {
  const std::string genome = GenerateGenome(300000, 77);
  ThreadPool pool(8);
  const ReferenceEncoding serial = EncodeReference(genome);
  const ReferenceEncoding parallel = EncodeReference(genome, &pool);
  EXPECT_EQ(serial.words, parallel.words);
  EXPECT_EQ(serial.n_mask, parallel.n_mask);
  EXPECT_EQ(serial.length, parallel.length);
}

// -------------------------------------------------------------- revcomp --

TEST(RevCompTest, ComplementsBasesAndCodes) {
  EXPECT_EQ(ComplementBase('A'), 'T');
  EXPECT_EQ(ComplementBase('C'), 'G');
  EXPECT_EQ(ComplementBase('g'), 'C');
  EXPECT_EQ(ComplementBase('t'), 'A');
  EXPECT_EQ(ComplementBase('N'), 'N');
  EXPECT_EQ(ComplementBase('x'), 'N');
  for (unsigned code = 0; code < 4; ++code) {
    EXPECT_EQ(BaseToCode(ComplementBase(CodeToBase(code))),
              ComplementCode(code));
  }
}

TEST(RevCompTest, KnownSequence) {
  EXPECT_EQ(ReverseComplement("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(ReverseComplement("AACCGGTT"), "AACCGGTT");
  EXPECT_EQ(ReverseComplement("AAAT"), "ATTT");
  EXPECT_EQ(ReverseComplement("GATTACA"), "TGTAATC");
  EXPECT_EQ(ReverseComplement(""), "");
}

TEST(RevCompTest, StringRevCompIsAnInvolution) {
  Rng rng(91);
  for (const int length : {1, 7, 16, 33, 100, 257}) {
    const std::string seq = RandomSeq(rng, static_cast<std::size_t>(length));
    EXPECT_EQ(ReverseComplement(ReverseComplement(seq)), seq)
        << "length " << length;
  }
}

TEST(RevCompTest, UnknownBasesMirrorAsN) {
  // 'N' has no complement; it stays 'N' at the mirrored position, so
  // has-N tracking survives reorientation unchanged.
  EXPECT_EQ(ReverseComplement("ANCG"), "CGNT");
  EXPECT_EQ(ReverseComplement("NNNN"), "NNNN");
  const std::string mixed = "ACGTNACGT";
  const std::string rc = ReverseComplement(mixed);
  ASSERT_EQ(rc.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(rc[i] == 'N', mixed[mixed.size() - 1 - i] == 'N') << i;
  }
}

/// The per-base reverse complement the word-parallel implementation
/// replaced, kept here as its differential reference: reads only the
/// `length` real bases and leaves the output pad zero.
void ReverseComplementEncodedPerBase(const Word* in, int length, Word* out) {
  std::fill(out, out + EncodedWords(length), Word{0});
  for (int i = 0; i < length; ++i) {
    SetBase2Bit(out, i, ComplementCode(GetBase2Bit(in, length - 1 - i)));
  }
}

/// Bits of the last encoded word that hold no base (0 when word-aligned).
Word PadMask(int length) {
  const int pad_bases = EncodedWords(length) * kBasesPerWord - length;
  return pad_bases == 0 ? Word{0} : (Word{1} << (2 * pad_bases)) - 1;
}

TEST(RevCompTest, EncodedMatchesStringRevComp) {
  Rng rng(92);
  for (int length = 0; length <= kMaxReadLength; ++length) {
    const std::string seq = RandomSeq(rng, static_cast<std::size_t>(length));
    const int nwords = EncodedWords(length);
    Word enc[kMaxEncodedWords] = {};
    Word rc_enc[kMaxEncodedWords] = {};
    Word expect_enc[kMaxEncodedWords] = {};
    ASSERT_FALSE(EncodeSequence(seq, enc));
    ReverseComplementEncoded(enc, length, rc_enc);
    ASSERT_FALSE(EncodeSequence(ReverseComplement(seq), expect_enc));
    for (int w = 0; w < nwords; ++w) {
      ASSERT_EQ(rc_enc[w], expect_enc[w]) << "length " << length
                                          << " word " << w;
    }
    ASSERT_EQ(DecodeSequence(rc_enc, length), ReverseComplement(seq))
        << "length " << length;
  }
}

TEST(RevCompTest, EncodedMatchesPerBaseLoopOnGarbagePads) {
  // Random words, pad bits included: the pad must be ignored on input and
  // zero on output, for every length the kernels accept.
  Rng rng(94);
  for (int length = 0; length <= kMaxReadLength; ++length) {
    const int nwords = EncodedWords(length);
    for (int trial = 0; trial < 4; ++trial) {
      Word in[kMaxEncodedWords];
      for (Word& w : in) w = rng.NextU32();
      Word got[kMaxEncodedWords];
      Word want[kMaxEncodedWords];
      ReverseComplementEncoded(in, length, got);
      ReverseComplementEncodedPerBase(in, length, want);
      for (int w = 0; w < nwords; ++w) {
        ASSERT_EQ(got[w], want[w]) << "length " << length << " word " << w;
      }
      if (nwords > 0) {
        ASSERT_EQ(got[nwords - 1] & PadMask(length), 0u)
            << "length " << length;
      }
      // The involution holds on the real bases; the input's garbage pad
      // comes back zeroed.
      Word twice[kMaxEncodedWords];
      ReverseComplementEncoded(got, length, twice);
      for (int w = 0; w < nwords; ++w) {
        const Word pad = w == nwords - 1 ? PadMask(length) : Word{0};
        ASSERT_EQ(twice[w], in[w] & ~pad)
            << "length " << length << " word " << w;
      }
    }
  }
}

TEST(RevCompTest, EncodedRevCompIsAnInvolution) {
  Rng rng(93);
  const int length = 211;  // deliberately not word-aligned
  const std::string seq = RandomSeq(rng, length);
  Word enc[kMaxEncodedWords];
  Word once[kMaxEncodedWords];
  Word twice[kMaxEncodedWords];
  ASSERT_FALSE(EncodeSequence(seq, enc));
  ReverseComplementEncoded(enc, length, once);
  ReverseComplementEncoded(once, length, twice);
  for (int w = 0; w < EncodedWords(length); ++w) {
    EXPECT_EQ(twice[w], enc[w]) << w;
  }
}

}  // namespace
}  // namespace gkgpu
