#include "align/banded_bv.hpp"

#include <array>
#include <charconv>
#include <stdexcept>

#include "align/banded_bv_kernel.hpp"

namespace gkgpu {

namespace {

using bv_detail::kColumnWords;
using bv_detail::kLanes;

/// 0..3 for "ACGT", 4 for every other byte.
constexpr std::array<std::uint8_t, 256> kCode = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(4);
  t['A'] = 0;
  t['C'] = 1;
  t['G'] = 2;
  t['T'] = 3;
  return t;
}();

/// The one-lane column loop: the same recurrence as the AVX-512 form,
/// with the match vector funnel-shifted out of per-base read masks.
/// Returns the distance (-1 when it exceeds k, or when the read holds a
/// byte outside "ACGT": *valid is then false).  Stores the lane's columns
/// while it is within k.
int ScalarLane(const char* read, const char* window, int m, int k, int lane,
               std::uint64_t* columns, bool* valid) {
  // peq[c]: bit p + k + 1 set where read[p] is base c, so the band of
  // column j is peq[c] >> j.  peq[4] collects bytes outside "ACGT".
  std::uint64_t peq[5][4] = {};
  for (int p = 0; p < m; ++p) {
    const int bit = p + k + 1;
    const unsigned c = kCode[static_cast<unsigned char>(read[p])];
    peq[c][bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  if ((peq[4][0] | peq[4][1] | peq[4][2]) != 0) {
    *valid = false;
    return -1;
  }
  std::uint64_t pv = ~std::uint64_t{0} << (k + 1);
  std::uint64_t mv = (std::uint64_t{1} << (k + 1)) - 1;
  int score = 0;
  for (int j = 1; j <= m; ++j) {
    const unsigned c = kCode[static_cast<unsigned char>(window[j - 1])];
    std::uint64_t eq = 0;
    if (c < 4) {
      const int w = j >> 6;
      const int s = j & 63;
      eq = peq[c][w] >> s;
      if (s != 0) eq |= peq[c][w + 1] << (64 - s);
    }
    // The band moves one row down; the row entering at bit 63 starts at
    // vertical delta 0 (see banded_bv.hpp).
    pv >>= 1;
    mv >>= 1;
    const std::uint64_t xv = eq | mv;
    const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    std::uint64_t ph = mv | ~(xh | pv);
    std::uint64_t mh = pv & xh;
    const std::uint64_t diag = ~(xh | mv);  // D[r][j] - D[r-1][j-1] == 1
    score += static_cast<int>((diag >> k) & 1);
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    std::uint64_t* col = columns + (j - 1) * std::size_t{kColumnWords};
    col[lane] = pv;
    col[kLanes + lane] = diag;
    if (score > k) return -1;
  }
  return score;
}

/// BandedAlign's traceback over the stored columns of `lane`: walks from
/// (m, m) to (0, 0) with band bit t = i - j + k, preferring M, then I,
/// then D, and writes the run-length encoded ops to `cigar`.  A path of
/// cost d <= k between equal-length sequences never strays more than d/2
/// diagonals from the main one, so t stays inside the band.
void Traceback(const char* read, const char* window, int m, int k, int lane,
               const std::uint64_t* columns, std::string* cigar) {
  // At most 2m ops, hence at most 2m runs, collected end first; the open
  // run stays in registers.
  char run_op[2 * BandedBvVerifier::kMaxLength];
  int run_len[2 * BandedBvVerifier::kMaxLength];
  int runs = 0;
  char op = 0;
  int len = 0;
  const auto push = [&](char o, int n) {
    if (o != op) {
      if (len > 0) {
        run_op[runs] = op;
        run_len[runs] = len;
        ++runs;
      }
      op = o;
      len = 0;
    }
    len += n;
  };
  const auto column = [&](int j) {
    return columns + static_cast<std::size_t>(j - 1) * kColumnWords;
  };
  int i = m;
  int j = m;
  int t = k;
  while (i > 0 || j > 0) {
    // M: D[i-1][j-1] + mismatch == D[i][j], i.e. the diagonal delta of
    // the cell equals the mismatch.  A diagonal run stays on band bit t.
    int diagonal = 0;
    while (i > 0 && j > 0) {
      const std::uint64_t mismatch = read[i - 1] != window[j - 1];
      if (((column(j)[kLanes + lane] >> t) & 1) != mismatch) break;
      --i;
      --j;
      ++diagonal;
    }
    if (diagonal > 0) {
      push('M', diagonal);
      continue;
    }
    // I: D[i-1][j] + 1 == D[i][j], a +1 vertical delta; column 0 is
    // D[i][0] = i.
    if (i > 0 && (j == 0 || ((column(j)[lane] >> t) & 1) != 0)) {
      push('I', 1);
      --i;
      --t;
      continue;
    }
    push('D', 1);
    --j;
    ++t;
  }
  push(0, 0);  // close the last run
  cigar->clear();
  for (int r = runs - 1; r >= 0; --r) {
    char digits[8];
    const auto res =
        std::to_chars(digits, digits + sizeof(digits), run_len[r]);
    cigar->append(digits, res.ptr);
    cigar->push_back(run_op[r]);
  }
}

}  // namespace

BandedBvVerifier::BandedBvVerifier(simd::Level level)
    : vectorized_(level == simd::Level::kAvx512 &&
                  bv_detail::BandedBvAvx512Compiled() &&
                  simd::Avx512Supported()),
      columns_(static_cast<std::size_t>(kMaxLength) * kColumnWords) {}

bool BandedBvVerifier::AcgtOnly(std::string_view read) {
  unsigned bad = 0;
  for (const char c : read) bad |= kCode[static_cast<unsigned char>(c)] >> 2;
  return bad == 0;
}

void BandedBvVerifier::Verify(BvLane* lanes, int n, int k) {
  if (n < 1 || n > kLanes) {
    throw std::invalid_argument("BandedBvVerifier: lane count out of range");
  }
  const std::size_t m = lanes[0].read.size();
  bv_detail::Group g;
  g.lanes = n;
  g.m = static_cast<int>(m);
  g.k = k;
  for (int l = 0; l < n; ++l) {
    if (lanes[l].read.size() != m ||
        !Eligible(m, lanes[l].window.size(), k)) {
      throw std::invalid_argument(
          "BandedBvVerifier: lane not eligible or lengths differ");
    }
    g.read[l] = lanes[l].read.data();
    g.window[l] = lanes[l].window.data();
  }
  int distance[kLanes];
  bool valid = true;
  if (vectorized_) {
    valid = bv_detail::BandedBvAvx512(g, distance, columns_.data());
  } else {
    for (int l = 0; l < n && valid; ++l) {
      distance[l] = ScalarLane(g.read[l], g.window[l], g.m, k, l,
                               columns_.data(), &valid);
    }
  }
  if (!valid) {
    throw std::invalid_argument(
        "BandedBvVerifier: read holds a byte outside ACGT");
  }
  for (int l = 0; l < n; ++l) {
    lanes[l].distance = distance[l];
    if (distance[l] >= 0 && lanes[l].cigar != nullptr) {
      Traceback(g.read[l], g.window[l], g.m, k, l, columns_.data(),
                lanes[l].cigar);
    }
  }
}

}  // namespace gkgpu
