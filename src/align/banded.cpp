#include "align/banded.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace gkgpu {

namespace {
constexpr int kInf = 1 << 29;
}  // namespace

int BandedEditDistance(std::string_view a, std::string_view b, int k) {
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (k < 0) return -1;
  if (std::abs(m - n) > k) return -1;
  if (m == 0) return n <= k ? n : -1;
  if (n == 0) return m <= k ? m : -1;
  // row[d] holds D[i][i + d - k] for diagonal offset d in [0, 2k].
  const int width = 2 * k + 1;
  std::vector<int> row(static_cast<std::size_t>(width), kInf);
  std::vector<int> prev(static_cast<std::size_t>(width), kInf);
  // Row 0: D[0][j] = j for j in [0, k].
  for (int d = 0; d < width; ++d) {
    const int j = d - k;
    prev[static_cast<std::size_t>(d)] = (j >= 0 && j <= n) ? j : kInf;
  }
  for (int i = 1; i <= m; ++i) {
    for (int d = 0; d < width; ++d) {
      const int j = i + d - k;
      int v = kInf;
      if (j >= 0 && j <= n) {
        if (j == 0) {
          v = i;
        } else {
          // deletion from a: D[i-1][j] + 1 sits at prev[d + 1]
          if (d + 1 < width && prev[static_cast<std::size_t>(d + 1)] < kInf) {
            v = std::min(v, prev[static_cast<std::size_t>(d + 1)] + 1);
          }
          // insertion into a: D[i][j-1] + 1 sits at row[d - 1]
          if (d - 1 >= 0 && row[static_cast<std::size_t>(d - 1)] < kInf) {
            v = std::min(v, row[static_cast<std::size_t>(d - 1)] + 1);
          }
          // substitution / match: D[i-1][j-1] sits at prev[d]
          if (prev[static_cast<std::size_t>(d)] < kInf) {
            const int cost = a[static_cast<std::size_t>(i - 1)] ==
                                     b[static_cast<std::size_t>(j - 1)]
                                 ? 0
                                 : 1;
            v = std::min(v, prev[static_cast<std::size_t>(d)] + cost);
          }
        }
      }
      row[static_cast<std::size_t>(d)] = v;
    }
    std::swap(row, prev);
    // Early exit: if every cell in the band exceeds k the answer is > k.
    if (*std::min_element(prev.begin(), prev.end()) > k) return -1;
  }
  const int d_final = n - m + k;
  if (d_final < 0 || d_final >= width) return -1;
  const int dist = prev[static_cast<std::size_t>(d_final)];
  return dist <= k ? dist : -1;
}

int BandedVerifier::Distance(std::string_view a, std::string_view b, int k) {
  return myers_.DistanceWithin(a, b, k);
}

}  // namespace gkgpu
