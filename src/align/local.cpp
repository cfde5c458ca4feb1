#include "align/local.hpp"

#include <algorithm>

#include "align/cigar.hpp"

namespace gkgpu {

namespace {
constexpr int kInf = 1 << 29;
}  // namespace

LocalAlignment LocalAligner::BestFit(std::string_view read,
                                     std::string_view ref, int max_edits,
                                     std::int64_t max_begin) {
  if (max_edits < 0) return {};
  const int m = static_cast<int>(read.size());
  const int n = static_cast<int>(ref.size());
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  const std::size_t cells = static_cast<std::size_t>(m + 1) * stride;
  // The matrix is never cleared: rows record their live span [lo_, hi_]
  // and every read outside it yields kInf, so stale values from a
  // previous call are unreachable.
  if (dp_.size() < cells) dp_.resize(cells);
  lo_.resize(static_cast<std::size_t>(m) + 1);
  hi_.resize(static_cast<std::size_t>(m) + 1);
  const auto row = [&](int i) {
    return dp_.data() + static_cast<std::size_t>(i) * stride;
  };
  const auto at = [&](int i, int j) {
    const auto r = static_cast<std::size_t>(i);
    return j < lo_[r] || j > hi_[r] ? kInf : row(i)[j];
  };

  // Row 0 is free up to max_begin: a placement may start before any
  // admissible reference base, but never past the bound.
  const int begin_limit =
      max_begin < 0
          ? n
          : static_cast<int>(std::min<std::int64_t>(n, max_begin));
  std::fill(row(0), row(0) + begin_limit + 1, 0);
  lo_[0] = 0;
  hi_[0] = begin_limit;
  // Live spans: a cell <= max_edits needs a live predecessor, so row i's
  // live cells lie between the previous row's lo and the end of the D
  // chain leaving the previous row's hi + 1.  Cells past the budget can
  // never recover (costs are nonnegative) and are poisoned to kInf, which
  // keeps the spans O(max_edits) wide once the read prefix is long enough
  // to pin its placement.
  for (int i = 1; i <= m; ++i) {
    int* const prev = row(i - 1);
    int* const cur = row(i);
    const int prev_lo = lo_[static_cast<std::size_t>(i) - 1];
    const int prev_hi = hi_[static_cast<std::size_t>(i) - 1];
    // Sentinels just outside the previous span, so the recurrence reads
    // only values this call wrote.
    if (prev_lo > 0) prev[prev_lo - 1] = kInf;
    if (prev_hi < n) prev[prev_hi + 1] = kInf;
    const char base = read[static_cast<std::size_t>(i) - 1];
    int lo = -1;
    int hi = -1;
    int left = kInf;  // cur[j - 1]
    int j = prev_lo;
    if (j == 0) {
      left = i <= max_edits ? i : kInf;
      cur[0] = left;
      if (left != kInf) lo = hi = 0;
      j = 1;
    }
    for (const int diag_end = std::min(n, prev_hi + 1); j <= diag_end; ++j) {
      const int cost = base == ref[static_cast<std::size_t>(j) - 1] ? 0 : 1;
      const int v = std::min({prev[j - 1] + cost,  // M
                              prev[j] + 1,         // I
                              left + 1});          // D
      left = v > max_edits ? kInf : v;
      cur[j] = left;
      if (left != kInf) {
        if (lo < 0) lo = j;
        hi = j;
      }
    }
    // Past the previous row's reach only the D chain extends the row.
    for (; j <= n && left < max_edits; ++j) {
      cur[j] = ++left;
      hi = j;
    }
    if (lo < 0) return {};  // every later row is dead too
    lo_[static_cast<std::size_t>(i)] = lo;
    hi_[static_cast<std::size_t>(i)] = hi;
  }

  // Free end: the placement may stop before the window does.  Smallest
  // final column on ties -> the leftmost-ending placement, deterministic.
  const int final_lo = lo_[static_cast<std::size_t>(m)];
  const int final_hi = hi_[static_cast<std::size_t>(m)];
  int best_j = -1;
  int best = kInf;
  for (int j = final_lo; j <= final_hi; ++j) {
    if (at(m, j) < best) {
      best = at(m, j);
      best_j = j;
    }
  }

  LocalAlignment result;
  result.edits = best;
  // Placement multiplicity: cluster tied end columns — ends within
  // max_edits of each other are variants of one placement (shifting an
  // end by one column costs an edit), farther apart they are distinct
  // loci of a repeat.
  int last_tied = -1;
  for (int j = final_lo; j <= final_hi; ++j) {
    if (at(m, j) != best) continue;
    if (last_tied < 0 || j - last_tied > std::max(1, max_edits)) {
      ++result.placements;
    }
    last_tied = j;
  }
  // Traceback to row 0, preferring M so runs stay long; the row-0 column
  // reached is the placement's first reference base.
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
    // Remaining possibility: a reference base inside the placement is
    // unmatched.
    ops.push_back('D');
    --j;
  }
  std::reverse(ops.begin(), ops.end());
  result.ref_begin = j;
  result.ref_span = best_j - j;
  result.cigar = CompressCigarOps(ops);
  return result;
}

}  // namespace gkgpu
