#include "align/cigar.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <vector>

namespace gkgpu {

namespace {
constexpr int kInf = 1 << 29;
}  // namespace

std::string CompressCigarOps(const std::string& ops) {
  std::string out;
  std::size_t i = 0;
  while (i < ops.size()) {
    std::size_t j = i;
    while (j < ops.size() && ops[j] == ops[i]) ++j;
    out += std::to_string(j - i);
    out.push_back(ops[i]);
    i = j;
  }
  return out;
}

Alignment BandedAlign(std::string_view read, std::string_view ref, int k) {
  const int m = static_cast<int>(read.size());
  const int n = static_cast<int>(ref.size());
  if (k < 0 || std::abs(m - n) > k) return {};
  const char* const a = read.data();
  const char* const b = ref.data();
  // row(i)[d] = D[i][i + d - k] for d in [0, 2k]; the full band is kept
  // for the traceback.  Each row carries a kInf sentinel column on either
  // side (d = -1 and d = width), so the recurrence needs no bounds
  // branches.  The buffer is reused per thread; every cell a call reads,
  // it wrote.
  const int width = 2 * k + 1;
  const int stride = width + 2;
  thread_local std::vector<int> dp;
  const std::size_t cells = static_cast<std::size_t>(m + 1) * stride;
  if (dp.size() < cells) dp.resize(cells);
  const auto row = [&](int i) {
    return dp.data() + static_cast<std::size_t>(i) * stride + 1;
  };
  int* const r0 = row(0);
  r0[-1] = kInf;
  r0[width] = kInf;
  for (int d = 0; d < width; ++d) {
    const int j = d - k;
    r0[d] = j >= 0 && j <= n ? j : kInf;
  }
  for (int i = 1; i <= m; ++i) {
    const int* prev = row(i - 1);
    int* cur = row(i);
    cur[-1] = kInf;
    cur[width] = kInf;
    // Only live cells, j = i + d - k in [0, n], are computed, and only
    // live cells or sentinels are ever read: a live cell's neighbours in
    // the previous row (d, d + 1) and this row (d - 1) are live or lie
    // outside [0, 2k].  The diagonal predecessor of a live cell with j > 0
    // is live, so every value is finite and a kInf + 1 candidate never
    // wins.
    const int dlo = std::max(0, k - i);
    const int dhi = std::min(width - 1, n + k - i);
    int d = dlo;
    if (i <= k) cur[d++] = i;  // j == 0
    const char ai = a[i - 1];
    const int j0 = i - k - 1;  // b[j0 + d] is the ref base of column d
    for (; d <= dhi; ++d) {
      // I: prev[d + 1] + 1, D: cur[d - 1] + 1, M: prev[d] + mismatch.
      const int gap = std::min(prev[d + 1], cur[d - 1]) + 1;
      cur[d] = std::min(gap, prev[d] + (ai != b[j0 + d]));
    }
  }
  const int d_final = n - m + k;
  if (row(m)[d_final] > k) return {};
  Alignment result;
  result.distance = row(m)[d_final];

  // Traceback from (m, n), preferring M so runs stay long.  It reads the
  // same live cells and sentinels as the recurrence; every cell on the
  // path is finite (<= k), so a sentinel (kInf + 1) never matches.
  thread_local std::string ops;
  ops.clear();
  int i = m;
  int d = d_final;
  while (i > 0 || i + d - k > 0) {
    const int j = i + d - k;
    const int cur = row(i)[d];
    if (i > 0 && j > 0 && row(i - 1)[d] + (a[i - 1] != b[j - 1]) == cur) {
      ops.push_back('M');
      --i;
    } else if (i > 0 && row(i - 1)[d + 1] + 1 == cur) {
      ops.push_back('I');  // read base unmatched
      --i;
      ++d;
    } else {
      ops.push_back('D');  // ref base unmatched
      --d;
    }
  }
  std::reverse(ops.begin(), ops.end());
  result.cigar = CompressCigarOps(ops);
  return result;
}

int CigarEdits(std::string_view read, std::string_view ref,
               const std::string& cigar) {
  std::size_t ri = 0;
  std::size_t gi = 0;
  int edits = 0;
  std::size_t p = 0;
  while (p < cigar.size()) {
    std::size_t q = p;
    while (q < cigar.size() &&
           std::isdigit(static_cast<unsigned char>(cigar[q]))) {
      ++q;
    }
    if (q == p || q >= cigar.size()) return -1;
    const int run = std::atoi(cigar.substr(p, q - p).c_str());
    const char op = cigar[q];
    p = q + 1;
    switch (op) {
      case 'M':
        if (ri + run > read.size() || gi + run > ref.size()) return -1;
        for (int t = 0; t < run; ++t) {
          if (read[ri + t] != ref[gi + t]) ++edits;
        }
        ri += run;
        gi += run;
        break;
      case 'I':
        if (ri + run > read.size()) return -1;
        ri += run;
        edits += run;
        break;
      case 'D':
        if (gi + run > ref.size()) return -1;
        gi += run;
        edits += run;
        break;
      default:
        return -1;
    }
  }
  if (ri != read.size() || gi != ref.size()) return -1;
  return edits;
}

}  // namespace gkgpu
