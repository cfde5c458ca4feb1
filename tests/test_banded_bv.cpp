// Differential tests for the fused verification kernel: every lane's
// distance must equal BandedEditDistance and every confirmed lane's CIGAR
// must equal BandedAlign(read, window, distance) byte for byte, at every
// tier this host can run (the portable one-lane form always, the
// eight-lane AVX-512 form where the binary and the CPU have it), over
// every read length 1..128 and every threshold 1..31.
#include "align/banded_bv.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "util/rng.hpp"

namespace gkgpu {
namespace {

constexpr char kBases[] = "ACGT";

std::string RandomBases(Rng& rng, int n) {
  std::string s(static_cast<std::size_t>(n), 'A');
  for (char& c : s) c = kBases[rng.Uniform(4)];
  return s;
}

/// A tandem repeat: a 1..6 bp unit repeated to length n, plus a few
/// substitutions — the shape that makes traceback ties plentiful.
std::string TandemRead(Rng& rng, int n) {
  const int unit_length = 1 + static_cast<int>(rng.Uniform(6));
  const std::string unit = RandomBases(rng, unit_length);
  std::string s;
  while (static_cast<int>(s.size()) < n) s += unit;
  s.resize(static_cast<std::size_t>(n));
  const int subs = static_cast<int>(rng.Uniform(3));
  for (int e = 0; e < subs; ++e) {
    s[rng.Uniform(s.size())] = kBases[rng.Uniform(4)];
  }
  return s;
}

/// `edits` random substitutions / insertions / deletions of `read`, then
/// trimmed or padded with random bases back to the read's length.
std::string Mutate(Rng& rng, const std::string& read, int edits) {
  std::string w = read;
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng.Uniform(w.size() + 1);
    switch (rng.Uniform(3)) {
      case 0:
        if (at < w.size()) w[at] = kBases[rng.Uniform(4)];
        break;
      case 1:
        w.insert(w.begin() + static_cast<std::ptrdiff_t>(at),
                 kBases[rng.Uniform(4)]);
        break;
      default:
        if (at < w.size()) w.erase(at, 1);
        break;
    }
  }
  while (w.size() < read.size()) w.push_back(kBases[rng.Uniform(4)]);
  w.resize(read.size());
  return w;
}

/// Sprinkles reference-only bytes over a window: 'N' and lowercase bases,
/// neither of which matches any read base.
void AddNonBases(Rng& rng, std::string* w) {
  const int count = 1 + static_cast<int>(rng.Uniform(3));
  for (int e = 0; e < count; ++e) {
    char& c = (*w)[rng.Uniform(w->size())];
    if (rng.Uniform(2) == 0) {
      c = 'N';
    } else {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
}

struct Case {
  std::string read;
  std::string window;
};

Case RandomCase(Rng& rng, int m, int k) {
  Case c;
  c.read = rng.Uniform(5) == 0 ? TandemRead(rng, m) : RandomBases(rng, m);
  switch (rng.Uniform(6)) {
    case 0:  // unrelated window: refuted early unless m is tiny
      c.window = RandomBases(rng, m);
      break;
    case 1:  // a shifted copy of a tandem read: indel-heavy alignments
      c.window = Mutate(rng, c.read, static_cast<int>(rng.Uniform(3)));
      c.window = c.window.substr(1) + c.window.substr(0, 1);
      break;
    default:  // around the threshold
      c.window = Mutate(rng, c.read, static_cast<int>(rng.Uniform(k + 4)));
      break;
  }
  if (rng.Uniform(4) == 0) AddNonBases(rng, &c.window);
  return c;
}

std::vector<simd::Level> Tiers() {
  std::vector<simd::Level> tiers = {simd::Level::kScalar};
  if (BandedBvVerifier(simd::Level::kAvx512).vectorized()) {
    tiers.push_back(simd::Level::kAvx512);
  }
  return tiers;
}

/// Runs `cases` through one Verify call and checks every lane against
/// the reference aligners.  Returns the number of confirmed lanes.
int CheckGroup(BandedBvVerifier& bv, const std::vector<Case>& cases, int k,
               const char* tier) {
  std::vector<BvLane> lanes(cases.size());
  std::vector<std::string> cigars(cases.size(), "stale");
  for (std::size_t l = 0; l < cases.size(); ++l) {
    lanes[l].read = cases[l].read;
    lanes[l].window = cases[l].window;
    lanes[l].cigar = &cigars[l];
  }
  bv.Verify(lanes.data(), static_cast<int>(lanes.size()), k);
  int confirmed = 0;
  for (std::size_t l = 0; l < cases.size(); ++l) {
    const Case& c = cases[l];
    const int want = BandedEditDistance(c.read, c.window, k);
    EXPECT_EQ(lanes[l].distance, want)
        << tier << " m=" << c.read.size() << " k=" << k << " lane " << l
        << "\nread   " << c.read << "\nwindow " << c.window;
    if (want < 0 || lanes[l].distance != want) continue;
    ++confirmed;
    EXPECT_EQ(cigars[l], BandedAlign(c.read, c.window, want).cigar)
        << tier << " m=" << c.read.size() << " k=" << k << " d=" << want
        << "\nread   " << c.read << "\nwindow " << c.window;
  }
  return confirmed;
}

TEST(BandedBvTest, DifferentialAgainstBandedEditDistanceAndBandedAlign) {
  for (const simd::Level tier : Tiers()) {
    const char* name = simd::LevelName(tier);
    BandedBvVerifier bv(tier);
    Rng rng(0xB17B7u);
    int lanes = 0;
    int confirmed = 0;
    // Every length x every threshold, one partly or fully filled group
    // each; k = 31 is the full 63-bit band.
    for (int m = 1; m <= BandedBvVerifier::kMaxLength; ++m) {
      for (int k = 1; k <= BandedBvVerifier::kMaxThreshold; ++k) {
        std::vector<Case> group(1 + rng.Uniform(BandedBvVerifier::kLanes));
        for (Case& c : group) c = RandomCase(rng, m, k);
        confirmed += CheckGroup(bv, group, k, name);
        lanes += static_cast<int>(group.size());
      }
    }
    // The mapper's shape, many more groups: 100 bp at e = 5.
    for (int rep = 0; rep < 4000; ++rep) {
      std::vector<Case> group(BandedBvVerifier::kLanes);
      for (Case& c : group) c = RandomCase(rng, 100, 5);
      confirmed += CheckGroup(bv, group, 5, name);
      lanes += static_cast<int>(group.size());
    }
    // Both outcomes must be well represented, or the sweep proves little.
    EXPECT_GT(confirmed, lanes / 4) << name;
    EXPECT_LT(confirmed, lanes - lanes / 4) << name;
    if (HasFailure()) return;  // one tier's report is enough
  }
}

TEST(BandedBvTest, EligibilityAndRejectedInputs) {
  EXPECT_TRUE(BandedBvVerifier::AcgtOnly("ACGTTGCA"));
  EXPECT_FALSE(BandedBvVerifier::AcgtOnly("ACGNT"));
  EXPECT_FALSE(BandedBvVerifier::AcgtOnly("ACGtT"));
  EXPECT_TRUE(BandedBvVerifier::Eligible(100, 100, 5));
  EXPECT_TRUE(BandedBvVerifier::Eligible(128, 128, 31));
  EXPECT_TRUE(BandedBvVerifier::Eligible(1, 1, 1));
  EXPECT_FALSE(BandedBvVerifier::Eligible(129, 129, 5));
  EXPECT_FALSE(BandedBvVerifier::Eligible(100, 101, 5));
  EXPECT_FALSE(BandedBvVerifier::Eligible(0, 0, 5));
  EXPECT_FALSE(BandedBvVerifier::Eligible(100, 100, 0));
  EXPECT_FALSE(BandedBvVerifier::Eligible(100, 100, 32));
  for (const simd::Level tier : Tiers()) {
    BandedBvVerifier bv(tier);
    const std::string read = "ACGTNACGTA";
    const std::string window = "ACGTAACGTA";
    BvLane lane{read, window};
    EXPECT_THROW(bv.Verify(&lane, 1, 3), std::invalid_argument);
    const std::string good = "ACGTAACGTA";
    const std::string shorter = "ACGTA";
    BvLane mixed[2] = {{good, window}, {shorter, shorter}};
    EXPECT_THROW(bv.Verify(mixed, 2, 3), std::invalid_argument);
    EXPECT_THROW(bv.Verify(mixed, 0, 3), std::invalid_argument);
    BvLane over{good, window};
    EXPECT_THROW(bv.Verify(&over, 1, 32), std::invalid_argument);
  }
}

}  // namespace
}  // namespace gkgpu
