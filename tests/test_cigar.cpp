// Tests for banded alignment with traceback: CIGAR strings must span both
// sequences exactly, imply the reported edit count, and the distance must
// agree with the traceback-free verifier on randomized sweeps.  A
// differential grid pins BandedAlign's bytes to the plain int-DP reference
// below, so a different-but-valid CIGAR fails too.
#include "align/cigar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/needleman_wunsch.hpp"
#include "encode/dna.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

constexpr int kRefInf = 1 << 29;

/// The straightforward banded int DP with M-first traceback that
/// BandedAlign must reproduce byte for byte: a fresh kInf-filled matrix per
/// call and a bounds check on every cell.
Alignment ReferenceBandedAlign(std::string_view read, std::string_view ref,
                               int k) {
  const int m = static_cast<int>(read.size());
  const int n = static_cast<int>(ref.size());
  if (k < 0 || std::abs(m - n) > k) return {};
  const int width = 2 * k + 1;
  std::vector<int> dp(static_cast<std::size_t>(m + 1) * width, kRefInf);
  auto at = [&](int i, int d) -> int& {
    return dp[static_cast<std::size_t>(i) * width + d];
  };
  for (int d = 0; d < width; ++d) {
    const int j = d - k;
    if (j >= 0 && j <= n) at(0, d) = j;
  }
  for (int i = 1; i <= m; ++i) {
    for (int d = 0; d < width; ++d) {
      const int j = i + d - k;
      if (j < 0 || j > n) continue;
      int v = kRefInf;
      if (j == 0) {
        v = i;
      } else {
        if (d + 1 < width && at(i - 1, d + 1) < kRefInf) {
          v = std::min(v, at(i - 1, d + 1) + 1);
        }
        if (d - 1 >= 0 && at(i, d - 1) < kRefInf) {
          v = std::min(v, at(i, d - 1) + 1);
        }
        if (at(i - 1, d) < kRefInf) {
          const int cost = read[static_cast<std::size_t>(i - 1)] ==
                                   ref[static_cast<std::size_t>(j - 1)]
                               ? 0
                               : 1;
          v = std::min(v, at(i - 1, d) + cost);
        }
      }
      at(i, d) = v;
    }
  }
  const int d_final = n - m + k;
  if (d_final < 0 || d_final >= width || at(m, d_final) > k) return {};

  Alignment result;
  result.distance = at(m, d_final);
  std::string ops;
  int i = m;
  int d = d_final;
  while (i > 0 || i + d - k > 0) {
    const int j = i + d - k;
    const int cur = at(i, d);
    if (i > 0 && j > 0 && at(i - 1, d) < kRefInf) {
      const int cost = read[static_cast<std::size_t>(i - 1)] ==
                               ref[static_cast<std::size_t>(j - 1)]
                           ? 0
                           : 1;
      if (at(i - 1, d) + cost == cur) {
        ops.push_back('M');
        --i;
        continue;
      }
    }
    if (i > 0 && d + 1 < width && at(i - 1, d + 1) < kRefInf &&
        at(i - 1, d + 1) + 1 == cur) {
      ops.push_back('I');
      --i;
      ++d;
      continue;
    }
    ops.push_back('D');
    --d;
  }
  std::reverse(ops.begin(), ops.end());
  result.cigar = CompressCigarOps(ops);
  return result;
}

/// A read of `length` bases: uniform ACGT, a short tandem repeat (unit of
/// 1-4 bases, which stresses the traceback's tie-breaks), or either one
/// sprinkled with N and lowercase bases.
std::string GridRead(Rng& rng, int length) {
  static const char kAlphabet[] = "ACGTNacgtn";
  std::string s(static_cast<std::size_t>(length), 'A');
  const int kind = static_cast<int>(rng.Uniform(4));
  if (kind == 1 || kind == 3) {
    std::string unit(1 + rng.Uniform(4), 'A');
    for (char& c : unit) c = kBases[rng.Uniform(4)];
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = unit[i % unit.size()];
  } else {
    for (char& c : s) c = kBases[rng.Uniform(4)];
  }
  if (kind >= 2) {
    for (char& c : s) {
      if (rng.Bernoulli(0.05)) c = kAlphabet[rng.Uniform(10)];
    }
  }
  return s;
}

/// `read` with up to `edits` random substitutions and single-base indels,
/// then padded or trimmed at random positions to exactly `n` bases.
std::string GridRef(Rng& rng, const std::string& read, int edits, int n) {
  std::string s = read;
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng.Uniform(s.size() + 1);
    switch (rng.Uniform(3)) {
      case 0:
        if (at < s.size()) s[at] = kBases[rng.Uniform(4)];
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                 kBases[rng.Uniform(4)]);
        break;
      default:
        if (at < s.size()) s.erase(at, 1);
        break;
    }
  }
  while (static_cast<int>(s.size()) < n) {
    s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.Uniform(s.size() + 1)),
             kBases[rng.Uniform(4)]);
  }
  while (static_cast<int>(s.size()) > n) s.erase(rng.Uniform(s.size()), 1);
  return s;
}

TEST(CigarTest, ExactMatchIsAllM) {
  const Alignment a = BandedAlign("ACGTACGT", "ACGTACGT", 2);
  EXPECT_EQ(a.distance, 0);
  EXPECT_EQ(a.cigar, "8M");
}

TEST(CigarTest, SubstitutionStaysM) {
  const Alignment a = BandedAlign("ACGTACGT", "ACGAACGT", 2);
  EXPECT_EQ(a.distance, 1);
  EXPECT_EQ(a.cigar, "8M");  // M covers mismatches in SAM
}

TEST(CigarTest, InsertionAndDeletion) {
  // read has an extra base relative to ref -> one I.
  const Alignment ins = BandedAlign("ACGGT", "ACGT", 2);
  EXPECT_EQ(ins.distance, 1);
  EXPECT_EQ(CigarEdits("ACGGT", "ACGT", ins.cigar), 1);
  EXPECT_NE(ins.cigar.find('I'), std::string::npos);
  // ref has an extra base -> one D.
  const Alignment del = BandedAlign("ACGT", "ACGGT", 2);
  EXPECT_EQ(del.distance, 1);
  EXPECT_EQ(CigarEdits("ACGT", "ACGGT", del.cigar), 1);
  EXPECT_NE(del.cigar.find('D'), std::string::npos);
}

TEST(CigarTest, BeyondBandReturnsEmpty) {
  const Alignment a = BandedAlign("AAAA", "TTTT", 2);
  EXPECT_EQ(a.distance, -1);
  EXPECT_TRUE(a.cigar.empty());
}

TEST(CigarTest, DistanceMatchesBandedVerifierOnSweep) {
  Rng rng(7);
  for (int t = 0; t < 400; ++t) {
    const int length = 20 + static_cast<int>(rng.Uniform(200));
    const int edits = static_cast<int>(rng.Uniform(12));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.4, rng.NextU64());
    const int k = 2 * edits + 2;
    const int expected = BandedEditDistance(p.read, p.ref, k);
    const Alignment a = BandedAlign(p.read, p.ref, k);
    ASSERT_EQ(a.distance, expected) << "trial " << t;
    if (expected >= 0) {
      // The CIGAR must span both sequences and imply exactly the distance
      // (unit costs: an optimal alignment has edits == distance).
      ASSERT_EQ(CigarEdits(p.read, p.ref, a.cigar), expected)
          << "trial " << t << " cigar " << a.cigar;
    }
  }
}

TEST(CigarTest, UnequalLengths) {
  Rng rng(11);
  for (int t = 0; t < 100; ++t) {
    const std::string a = [&] {
      std::string s(40 + rng.Uniform(40), 'A');
      for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
      return s;
    }();
    std::string b = a;
    b.erase(rng.Uniform(b.size()), 1 + rng.Uniform(3));
    const int d = NwEditDistance(a, b);
    const Alignment aln = BandedAlign(a, b, d);
    ASSERT_EQ(aln.distance, d) << t;
    ASSERT_EQ(CigarEdits(a, b, aln.cigar), d) << t;
  }
}

TEST(CigarTest, DifferentialAgainstReferenceDp) {
  // Lengths 0..150 visited in an order that grows and shrinks the read on
  // one thread, so a stale cell in a reused buffer would show; every
  // band width from 0 (no indel room) to 8 meets equal and unequal lengths.
  const int lengths[] = {0, 1, 2, 63, 100, 150, 63, 2, 100, 0, 150, 1};
  Rng rng(20241019);
  int compared = 0;
  int aligned = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const int m : lengths) {
      for (int k = 0; k <= 8; ++k) {
        for (int delta = -(k + 1); delta <= k + 1; ++delta) {
          const int n = m + delta;
          if (n < 0) continue;
          const std::string read = GridRead(rng, m);
          const int edits = static_cast<int>(rng.Uniform(k + 3));
          const std::string ref = GridRef(rng, read, edits, n);
          for (const int band : {k, std::max(0, k - 1)}) {
            const Alignment want = ReferenceBandedAlign(read, ref, band);
            const Alignment got = BandedAlign(read, ref, band);
            ASSERT_EQ(got.distance, want.distance)
                << "m=" << m << " n=" << n << " k=" << band << "\nread "
                << read << "\nref  " << ref;
            ASSERT_EQ(got.cigar, want.cigar)
                << "m=" << m << " n=" << n << " k=" << band << "\nread "
                << read << "\nref  " << ref;
            ++compared;
            aligned += want.distance >= 0;
          }
        }
      }
    }
  }
  // The grid must exercise both outcomes, not only out-of-band rejects.
  EXPECT_GT(aligned, compared / 4);
  EXPECT_LT(aligned, compared);
}

TEST(CigarTest, CigarEditsRejectsMalformed) {
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "3M"), -1);    // doesn't span
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "5M"), -1);    // overruns
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "4X"), -1);    // unknown op
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "M"), -1);     // missing count
  EXPECT_EQ(CigarEdits("ACGT", "ACGT", "4M"), 0);
}

}  // namespace
}  // namespace gkgpu
