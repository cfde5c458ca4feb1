// Tests for the alignment oracles: Needleman-Wunsch DP, the Myers
// bit-vector (Edlib equivalent), and the banded Ukkonen verifier — all
// cross-checked against each other on randomized sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "align/local.hpp"
#include "align/myers.hpp"
#include "align/needleman_wunsch.hpp"
#include "encode/dna.hpp"
#include "sim/pairgen.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

std::string RandomSeq(Rng& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = kBases[rng.NextU64() & 0x3u];
  return s;
}

TEST(NwTest, KnownDistances) {
  EXPECT_EQ(NwEditDistance("", ""), 0);
  EXPECT_EQ(NwEditDistance("ACGT", "ACGT"), 0);
  EXPECT_EQ(NwEditDistance("ACGT", ""), 4);
  EXPECT_EQ(NwEditDistance("", "ACGT"), 4);
  EXPECT_EQ(NwEditDistance("ACGT", "AGGT"), 1);   // substitution
  EXPECT_EQ(NwEditDistance("ACGT", "AGT"), 1);    // deletion
  EXPECT_EQ(NwEditDistance("ACGT", "ACCGT"), 1);  // insertion
  EXPECT_EQ(NwEditDistance("kitten", "sitting"), 3);
}

TEST(MyersTest, MatchesNwOnRandomPairs) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t la = rng.Uniform(200) + 1;
    const std::size_t lb = rng.Uniform(200) + 1;
    const std::string a = RandomSeq(rng, la);
    const std::string b = RandomSeq(rng, lb);
    EXPECT_EQ(MyersEditDistance(a, b), NwEditDistance(a, b))
        << "trial " << trial;
  }
}

TEST(MyersTest, MatchesNwOnMutatedPairs) {
  Rng rng(5);
  MyersAligner aligner;
  for (int trial = 0; trial < 200; ++trial) {
    const int length = 64 + static_cast<int>(rng.Uniform(200));
    const int edits = static_cast<int>(rng.Uniform(20));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.3, rng.NextU64());
    EXPECT_EQ(aligner.Distance(p.read, p.ref), NwEditDistance(p.read, p.ref))
        << "trial " << trial;
  }
}

TEST(MyersTest, MultiBlockBoundaries) {
  // Pattern lengths around the 64-bit block boundary.
  Rng rng(7);
  for (const int m : {63, 64, 65, 127, 128, 129, 255, 256, 300}) {
    const std::string a = RandomSeq(rng, static_cast<std::size_t>(m));
    std::string b = a;
    b[static_cast<std::size_t>(m / 2)] =
        a[static_cast<std::size_t>(m / 2)] == 'A' ? 'C' : 'A';
    EXPECT_EQ(MyersEditDistance(a, b), 1) << "m " << m;
    EXPECT_EQ(MyersEditDistance(a, a), 0) << "m " << m;
    const std::string c = RandomSeq(rng, static_cast<std::size_t>(m));
    EXPECT_EQ(MyersEditDistance(a, c), NwEditDistance(a, c)) << "m " << m;
  }
}

TEST(MyersTest, EmptyInputs) {
  EXPECT_EQ(MyersEditDistance("", ""), 0);
  EXPECT_EQ(MyersEditDistance("ACG", ""), 3);
  EXPECT_EQ(MyersEditDistance("", "ACG"), 3);
}

TEST(BandedTest, ExactWithinBandRejectsBeyond) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const int length = 20 + static_cast<int>(rng.Uniform(150));
    const std::string a = RandomSeq(rng, static_cast<std::size_t>(length));
    const std::string b = RandomSeq(rng, static_cast<std::size_t>(length));
    const int exact = NwEditDistance(a, b);
    for (const int k : {0, 1, 2, 5, 10, 25}) {
      const int banded = BandedEditDistance(a, b, k);
      if (exact <= k) {
        EXPECT_EQ(banded, exact) << "trial " << trial << " k " << k;
      } else {
        EXPECT_EQ(banded, -1) << "trial " << trial << " k " << k;
      }
    }
  }
}

TEST(BandedTest, UnequalLengths) {
  EXPECT_EQ(BandedEditDistance("ACGTACGT", "ACGT", 4), 4);
  EXPECT_EQ(BandedEditDistance("ACGTACGT", "ACGT", 3), -1);
  EXPECT_EQ(BandedEditDistance("ACGT", "ACGTACGT", 4), 4);
  EXPECT_EQ(BandedEditDistance("", "AC", 2), 2);
  EXPECT_EQ(BandedEditDistance("AC", "", 2), 2);
  EXPECT_EQ(BandedEditDistance("AC", "", 1), -1);
}

TEST(BandedTest, SubstitutionOnlyPairsStayWithinEditBudget) {
  // A pair built with d substitutions has distance exactly <= d.
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const int length = 100;
    const int edits = static_cast<int>(rng.Uniform(11));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.0, rng.NextU64());
    const int dist = BandedEditDistance(p.read, p.ref, edits);
    EXPECT_GE(dist, 0) << "trial " << trial << " edits " << edits;
    EXPECT_LE(dist, edits) << "trial " << trial;
  }
}

TEST(BandedTest, IndelPairsStayWithinDoubledBudget) {
  // Equal-length windows convert each net indel into an indel plus a
  // trailing boundary edit, so d planted edits bound the distance by 2d.
  Rng rng(14);
  for (int trial = 0; trial < 200; ++trial) {
    const int edits = 1 + static_cast<int>(rng.Uniform(10));
    const SequencePair p =
        MakePairWithEdits(100, edits, 1.0, rng.NextU64());
    const int dist = BandedEditDistance(p.read, p.ref, 2 * edits);
    EXPECT_GE(dist, 0) << "trial " << trial << " edits " << edits;
    EXPECT_LE(dist, 2 * edits) << "trial " << trial;
  }
}

TEST(BandedTest, AgreesWithMyersWithinThreshold) {
  // The production verifier (bit-vector) must reproduce the int-DP
  // reference exactly: the distance when it is <= k, -1 beyond.  One
  // verifier serves every call, in shuffled order across pattern lengths
  // and alphabets, so pattern bits left behind by an earlier call would
  // surface as a divergence.
  Rng rng(17);
  MyersAligner aligner;
  BandedVerifier verifier;
  for (int trial = 0; trial < 300; ++trial) {
    const int length = 100;
    const int edits = static_cast<int>(rng.Uniform(30));
    const SequencePair p =
        MakePairWithEdits(length, edits, 0.25, rng.NextU64());
    const int exact = aligner.Distance(p.read, p.ref);
    const int k = 10;
    const int banded = BandedEditDistance(p.read, p.ref, k);
    if (exact <= k) {
      EXPECT_EQ(banded, exact) << "trial " << trial;
    } else {
      EXPECT_EQ(banded, -1) << "trial " << trial;
    }
    EXPECT_EQ(verifier.Distance(p.read, p.ref, k), banded)
        << "trial " << trial;
  }

  // Single- and multi-word patterns, |m - n| from 0 to k + 1 either way,
  // N and lowercase bases (compared as distinct characters, like any
  // other byte).
  constexpr char kAlphabet[] = "ACGTNacgtn";
  const auto random_base = [&] {
    return rng.Bernoulli(0.85) ? kBases[rng.NextU64() & 0x3u]
                               : kAlphabet[4 + rng.Uniform(6)];
  };
  struct Case {
    int m;
    int n;
    int k;
  };
  std::vector<Case> cases;
  for (const int m : {0, 1, 63, 64, 65, 100, 127, 128, 129, 250}) {
    for (const int k : {0, 1, 5, 31, 40}) {
      for (int delta = 0; delta <= k + 1; ++delta) {
        for (const int sign : {1, -1}) {
          if (m + sign * delta >= 0) cases.push_back({m, m + sign * delta, k});
        }
      }
    }
  }
  for (std::size_t i = cases.size(); i > 1; --i) {
    std::swap(cases[i - 1], cases[rng.Uniform(i)]);
  }
  int accepted = 0;
  int rejected = 0;
  for (const Case& c : cases) {
    std::string a(static_cast<std::size_t>(c.m), 'A');
    for (char& ch : a) ch = random_base();
    // b: a with a few edits, then trimmed or padded to length n.
    std::string b = a;
    const int planted = static_cast<int>(rng.Uniform(
        static_cast<std::uint64_t>(c.k) + 3));
    for (int e = 0; e < planted && !b.empty(); ++e) {
      b[rng.Uniform(b.size())] = random_base();
    }
    while (static_cast<int>(b.size()) > c.n) b.erase(rng.Uniform(b.size()), 1);
    while (static_cast<int>(b.size()) < c.n) {
      b.insert(rng.Uniform(b.size() + 1), 1, random_base());
    }
    const int want = BandedEditDistance(a, b, c.k);
    (want >= 0 ? accepted : rejected) += 1;
    EXPECT_EQ(verifier.Distance(a, b, c.k), want)
        << "m " << c.m << " n " << c.n << " k " << c.k;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// Full-matrix reference for LocalAligner::BestFit: identical recurrence,
// poisoning and tie-breaking, but every row sweeps all n columns of a
// freshly kInf-cleared matrix.  The production aligner's adaptive band
// must be invisible — same edits, placement, multiplicity and CIGAR.
LocalAlignment ReferenceBestFit(std::string_view read, std::string_view ref,
                                int max_edits, std::int64_t max_begin) {
  constexpr int kInf = 1 << 29;
  if (max_edits < 0) return {};
  const int m = static_cast<int>(read.size());
  const int n = static_cast<int>(ref.size());
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  std::vector<int> dp(static_cast<std::size_t>(m + 1) * stride, kInf);
  auto at = [&](int i, int j) -> int& {
    return dp[static_cast<std::size_t>(i) * stride +
              static_cast<std::size_t>(j)];
  };
  const int begin_limit =
      max_begin < 0 ? n
                    : static_cast<int>(std::min<std::int64_t>(n, max_begin));
  for (int j = 0; j <= begin_limit; ++j) at(0, j) = 0;
  for (int i = 1; i <= m; ++i) {
    const int j_lo = std::max(0, i - max_edits);
    if (j_lo == 0) at(i, 0) = i;
    for (int j = std::max(1, j_lo); j <= n; ++j) {
      int v = kInf;
      if (at(i - 1, j - 1) < kInf) {
        const int cost = read[static_cast<std::size_t>(i - 1)] ==
                                 ref[static_cast<std::size_t>(j - 1)]
                             ? 0
                             : 1;
        v = std::min(v, at(i - 1, j - 1) + cost);
      }
      if (at(i - 1, j) < kInf) v = std::min(v, at(i - 1, j) + 1);
      if (at(i, j - 1) < kInf) v = std::min(v, at(i, j - 1) + 1);
      at(i, j) = v > max_edits ? kInf : v;
    }
  }
  int best_j = -1;
  int best = kInf;
  for (int j = 0; j <= n; ++j) {
    if (at(m, j) < best) {
      best = at(m, j);
      best_j = j;
    }
  }
  if (best_j < 0 || best > max_edits) return {};
  LocalAlignment result;
  result.edits = best;
  int last_tied = -1;
  for (int j = 0; j <= n; ++j) {
    if (at(m, j) != best) continue;
    if (last_tied < 0 || j - last_tied > std::max(1, max_edits)) {
      ++result.placements;
    }
    last_tied = j;
  }
  std::string ops;
  int i = m;
  int j = best_j;
  while (i > 0) {
    const int cur = at(i, j);
    if (j > 0 && at(i - 1, j - 1) < kInf) {
      const int cost = read[static_cast<std::size_t>(i - 1)] ==
                               ref[static_cast<std::size_t>(j - 1)]
                           ? 0
                           : 1;
      if (at(i - 1, j - 1) + cost == cur) {
        ops.push_back('M');
        --i;
        --j;
        continue;
      }
    }
    if (at(i - 1, j) < kInf && at(i - 1, j) + 1 == cur) {
      ops.push_back('I');
      --i;
      continue;
    }
    ops.push_back('D');
    --j;
  }
  std::reverse(ops.begin(), ops.end());
  result.ref_begin = j;
  result.ref_span = best_j - j;
  result.cigar = CompressCigarOps(ops);
  return result;
}

void ExpectSameFit(const LocalAlignment& got, const LocalAlignment& want,
                   const std::string& label) {
  EXPECT_EQ(got.edits, want.edits) << label;
  EXPECT_EQ(got.ref_begin, want.ref_begin) << label;
  EXPECT_EQ(got.ref_span, want.ref_span) << label;
  EXPECT_EQ(got.placements, want.placements) << label;
  EXPECT_EQ(got.cigar, want.cigar) << label;
}

TEST(BestFitBandTest, MatchesFullMatrixOnRandomizedGrid) {
  // One aligner reused across every call: the band rewrites only its own
  // span per call, so any unwritten-cell read would surface as a
  // divergence from the always-fresh reference matrix.
  Rng rng(23);
  LocalAligner aligner;
  for (int trial = 0; trial < 250; ++trial) {
    const int m = 20 + static_cast<int>(rng.Uniform(80));
    const int n = m + static_cast<int>(rng.Uniform(220));
    const std::string ref = RandomSeq(rng, static_cast<std::size_t>(n));
    // Plant the read somewhere in the window, then mutate it.
    const int offset = static_cast<int>(rng.Uniform(
        static_cast<std::uint64_t>(n - m) + 1));
    std::string read = ref.substr(static_cast<std::size_t>(offset),
                                  static_cast<std::size_t>(m));
    const int planted = static_cast<int>(rng.Uniform(6));
    for (int e = 0; e < planted; ++e) {
      const std::size_t pos = rng.Uniform(static_cast<std::uint64_t>(m));
      switch (rng.Uniform(3)) {
        case 0:  // substitution
          read[pos] = read[pos] == 'A' ? 'C' : 'A';
          break;
        case 1:  // deletion from the read
          read.erase(pos, 1);
          break;
        default:  // insertion into the read
          read.insert(pos, 1, kBases[rng.NextU64() & 0x3u]);
          break;
      }
    }
    const int max_edits = static_cast<int>(rng.Uniform(11));
    // Mix begin geometries: unrestricted, tight around the planted
    // offset, degenerate (column 0 only), mid-window, and at or past the
    // window's end.
    const std::int64_t max_begins[] = {-1, offset, offset + max_edits, 0,
                                       n / 2, n, n + 7};
    const std::int64_t max_begin = max_begins[rng.Uniform(7)];
    const std::string label = "trial " + std::to_string(trial) + " m " +
                              std::to_string(read.size()) + " n " +
                              std::to_string(n) + " e " +
                              std::to_string(max_edits) + " b " +
                              std::to_string(max_begin);
    ExpectSameFit(aligner.BestFit(read, ref, max_edits, max_begin),
                  ReferenceBestFit(read, ref, max_edits, max_begin), label);
  }
}

TEST(BestFitBandTest, IndelsAtTheBandEdgesAreNotClipped) {
  // Rescue-like geometry: the true placement sits at the far right of the
  // band (start == max_begin) and carries reference-consuming deletions,
  // so its path rides the band's upper boundary.  Clipping any row would
  // lose it.
  Rng rng(29);
  LocalAligner aligner;
  for (const int dels : {1, 2, 3, 4}) {
    const int m = 60;
    const int n = 400;
    const std::string ref = RandomSeq(rng, static_cast<std::size_t>(n));
    const int offset = n - m - dels;  // flush against the window's end
    std::string read = ref.substr(static_cast<std::size_t>(offset),
                                  static_cast<std::size_t>(m + dels));
    // Delete `dels` spread-out read bases so the placement spans
    // m + dels reference columns — the widest admissible drift.
    for (int d = 0; d < dels; ++d) {
      read.erase(static_cast<std::size_t>((d + 1) * m / (dels + 1)), 1);
    }
    const LocalAlignment got =
        aligner.BestFit(read, ref, dels, /*max_begin=*/offset);
    ASSERT_EQ(got.edits, dels) << "dels " << dels;
    EXPECT_EQ(got.ref_begin, offset) << "dels " << dels;
    EXPECT_EQ(got.ref_span, m + dels) << "dels " << dels;
    ExpectSameFit(got, ReferenceBestFit(read, ref, dels, offset),
                  "dels " + std::to_string(dels));
  }
}

TEST(BestFitBandTest, ShrinkingWindowsReuseTheMatrixSafely) {
  // Grow and shrink the window and the read on one aligner, so most calls
  // run inside a matrix still holding earlier calls' values — including
  // all-'A' calls whose stale cells are small, in-budget values that a
  // read outside the current call's spans would mistake for live ones.
  Rng rng(31);
  LocalAligner aligner;
  const int sizes[][2] = {{24, 40},  {100, 600}, {60, 90},  {150, 345},
                          {100, 345}, {30, 700},  {8, 12},   {120, 130}};
  for (int trial = 0; trial < 64; ++trial) {
    const int m = sizes[trial % 8][0];
    const int n = sizes[trial % 8][1];
    if (trial % 3 == 2) {
      const std::string poly_read(static_cast<std::size_t>(m), 'A');
      const std::string poly_ref(static_cast<std::size_t>(n), 'A');
      ExpectSameFit(aligner.BestFit(poly_read, poly_ref, 10, -1),
                    ReferenceBestFit(poly_read, poly_ref, 10, -1),
                    "poly trial " + std::to_string(trial));
      continue;
    }
    const std::string ref = RandomSeq(rng, static_cast<std::size_t>(n));
    const int offset =
        static_cast<int>(rng.Uniform(static_cast<std::uint64_t>(n - m) + 1));
    std::string read = ref.substr(static_cast<std::size_t>(offset),
                                  static_cast<std::size_t>(m));
    read[static_cast<std::size_t>(m / 2)] =
        read[static_cast<std::size_t>(m / 2)] == 'G' ? 'T' : 'G';
    const int max_edits = 4;
    const std::int64_t max_begin = trial % 2 == 0 ? -1 : offset;
    ExpectSameFit(aligner.BestFit(read, ref, max_edits, max_begin),
                  ReferenceBestFit(read, ref, max_edits, max_begin),
                  "trial " + std::to_string(trial));
  }
}

TEST(BestFitBandTest, SpansThatEmptyMidReadFindNothing) {
  // The read's prefix matches, its suffix is unrelated: the live span
  // narrows to the planted locus and then empties part-way down, so no
  // placement fits — while the unmutated read still fits exactly.
  Rng rng(37);
  LocalAligner aligner;
  for (int trial = 0; trial < 30; ++trial) {
    const int m = 40 + static_cast<int>(rng.Uniform(80));
    const int n = 2 * m + static_cast<int>(rng.Uniform(200));
    const std::string ref = RandomSeq(rng, static_cast<std::size_t>(n));
    const int offset =
        static_cast<int>(rng.Uniform(static_cast<std::uint64_t>(n - m) + 1));
    const std::string exact = ref.substr(static_cast<std::size_t>(offset),
                                         static_cast<std::size_t>(m));
    const std::string broken =
        exact.substr(0, static_cast<std::size_t>(m / 2)) +
        RandomSeq(rng, static_cast<std::size_t>(m - m / 2));
    const int max_edits = static_cast<int>(rng.Uniform(3));
    const std::string label = "trial " + std::to_string(trial);
    const LocalAlignment none = aligner.BestFit(broken, ref, max_edits, -1);
    EXPECT_EQ(none.edits, -1) << label;
    ExpectSameFit(none, ReferenceBestFit(broken, ref, max_edits, -1), label);
    const LocalAlignment fit = aligner.BestFit(exact, ref, max_edits, -1);
    EXPECT_EQ(fit.edits, 0) << label;
    ExpectSameFit(fit, ReferenceBestFit(exact, ref, max_edits, -1), label);
  }
}

TEST(BestFitBandTest, DeletionChainsRunPastThePreviousSpan) {
  // The placement starts at max_begin, matches one base, then skips `gap`
  // reference bases: row 1's span runs along a D chain past row 0's
  // hi + 1 (the begin limit), and the traceback walks back along it over
  // row-0 cells the call never wrote.  An unrestricted call before each
  // target leaves row 0 all zeros, which would pass for free starts.
  Rng rng(41);
  LocalAligner aligner;
  for (int trial = 0; trial < 40; ++trial) {
    const int gap = 1 + static_cast<int>(rng.Uniform(6));
    const int m = 30 + static_cast<int>(rng.Uniform(80));
    const int n = m + gap + 20 + static_cast<int>(rng.Uniform(250));
    aligner.BestFit(RandomSeq(rng, static_cast<std::size_t>(m)),
                    RandomSeq(rng, static_cast<std::size_t>(n)), 3, -1);
    const std::string ref = RandomSeq(rng, static_cast<std::size_t>(n));
    const int begin = static_cast<int>(
        rng.Uniform(static_cast<std::uint64_t>(n - m - gap) + 1));
    const std::string read =
        ref.substr(static_cast<std::size_t>(begin), 1) +
        ref.substr(static_cast<std::size_t>(begin + 1 + gap),
                   static_cast<std::size_t>(m - 1));
    const int max_edits = gap + static_cast<int>(rng.Uniform(3));
    const std::string label = "trial " + std::to_string(trial) + " gap " +
                              std::to_string(gap);
    const LocalAlignment got = aligner.BestFit(read, ref, max_edits, begin);
    ExpectSameFit(got, ReferenceBestFit(read, ref, max_edits, begin), label);
    EXPECT_GE(got.edits, 0) << label;
    EXPECT_LE(got.edits, gap) << label;
    EXPECT_LE(got.ref_begin, begin) << label;
  }
}

TEST(BestFitBandTest, TandemRepeatsCountEveryPlacement) {
  // A read inside a tandem repeat fits equally well at every copy of the
  // unit; the spans stay wide all the way down and the multiplicity scan
  // must see every tied cluster.
  Rng rng(43);
  LocalAligner aligner;
  int repeats_seen = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int unit_len = 7 + static_cast<int>(rng.Uniform(20));
    const std::string unit =
        RandomSeq(rng, static_cast<std::size_t>(unit_len));
    std::string ref = RandomSeq(rng, 30);
    const int copies = 6 + static_cast<int>(rng.Uniform(10));
    for (int c = 0; c < copies; ++c) ref += unit;
    ref += RandomSeq(rng, 30);
    const int m = 2 * unit_len + static_cast<int>(rng.Uniform(
                                     static_cast<std::uint64_t>(unit_len)));
    std::string read = ref.substr(30, static_cast<std::size_t>(m));
    if (trial % 2 == 1) read[static_cast<std::size_t>(m / 3)] = 'N';
    const int max_edits = static_cast<int>(rng.Uniform(4));
    const std::int64_t max_begin =
        trial % 3 == 0 ? -1
                       : static_cast<std::int64_t>(ref.size()) / 2;
    const LocalAlignment got =
        aligner.BestFit(read, ref, max_edits, max_begin);
    ExpectSameFit(got, ReferenceBestFit(read, ref, max_edits, max_begin),
                  "trial " + std::to_string(trial));
    if (got.placements > 1) ++repeats_seen;
  }
  EXPECT_GT(repeats_seen, 10);
}

}  // namespace
}  // namespace gkgpu
