// Occupancy-driven batch sizing for the streaming pipeline's source stage.
//
// The batch size trades per-batch overhead (slot round trips, queue hops,
// kernel launches) against pipeline granularity (fill/drain latency,
// ordered-sink buffering).  Instead of a fixed size, the source consults an
// AdaptiveBatcher before building each batch:
//
//   * when the filtration feed queues run dry the devices are starving —
//     the source/encode side cannot keep up at this granularity, so the
//     batch grows (fewer, larger host->device round trips);
//   * when the verify->sink queue backs up the consumer side is the
//     bottleneck — smaller batches keep the ordered sink's reorder window
//     and memory footprint down and the pipeline responsive.
//
// Decisions are pure functions of the observed occupancies (deterministic
// for a given observation sequence), multiplicative in both directions,
// clamped to [min_size, max_size], and never return zero; shrink takes
// precedence when both signals fire.
#ifndef GKGPU_PIPELINE_ADAPTIVE_HPP
#define GKGPU_PIPELINE_ADAPTIVE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace gkgpu::pipeline {

struct AdaptiveBatcherConfig {
  std::size_t min_size = 1024;
  std::size_t max_size = 16384;
  /// Starting size; 0 picks max_size (start coarse, shrink on pressure).
  std::size_t initial = 0;
  double grow_factor = 2.0;
  double shrink_factor = 0.5;
  /// Feed occupancy (0..1) below which the filter stage counts as starved.
  double starve_watermark = 0.25;
  /// Sink-side occupancy (0..1) above which the sink counts as backed up.
  double backpressure_watermark = 0.75;
};

/// Tuning preset for the paired driver (PairedEndMapper::MapPairs).
/// The paired path differs from single-end streaming in two ways that
/// shift the sweet spot:
///
///   * its ordered sink buffers whole *pairs* — both mates' edit vectors
///     stay pending until the later mate's last candidate drains — so a
///     size doubling doubles a much heavier reorder window.  Growth is
///     gentler (1.5x) and backpressure bites earlier (0.6);
///   * its source seeds two mates and concordance-prunes before emitting
///     a single candidate, so a feed queue hovering below ~1/3 already
///     means the devices will starve by the next round trip — the starve
///     watermark sits higher (0.35) to begin coarsening sooner.
///
/// Sizes (min/max/initial) are workload knobs, not path knobs; the preset
/// leaves them at the generic defaults for callers to override.
inline AdaptiveBatcherConfig PairedAdaptiveDefaults() {
  AdaptiveBatcherConfig cfg;
  cfg.grow_factor = 1.5;
  cfg.starve_watermark = 0.35;
  cfg.backpressure_watermark = 0.6;
  return cfg;
}

class AdaptiveBatcher {
 public:
  explicit AdaptiveBatcher(AdaptiveBatcherConfig config) : config_(config) {
    config_.min_size = std::max<std::size_t>(1, config_.min_size);
    config_.max_size = std::max(config_.min_size, config_.max_size);
    config_.grow_factor = std::max(1.0, config_.grow_factor);
    config_.shrink_factor = std::clamp(config_.shrink_factor, 0.0, 1.0);
    size_ = config_.initial == 0 ? config_.max_size
                                 : std::clamp(config_.initial,
                                              config_.min_size,
                                              config_.max_size);
    min_seen_ = max_seen_ = size_;
  }

  const AdaptiveBatcherConfig& config() const { return config_; }
  std::size_t current() const { return size_; }

  /// Decides the size of the next batch.  `feed_fill` is the occupancy of
  /// the queues feeding the filtration stage (0 = devices starving),
  /// `sink_fill` the occupancy of the queue draining into the sink
  /// (1 = sink backed up).
  std::size_t Next(double feed_fill, double sink_fill) {
    if (sink_fill > config_.backpressure_watermark) {
      size_ = std::max(
          config_.min_size,
          static_cast<std::size_t>(static_cast<double>(size_) *
                                   config_.shrink_factor));
      ++shrinks_;
    } else if (feed_fill < config_.starve_watermark) {
      size_ = std::min(
          config_.max_size,
          std::max(size_ + 1,
                   static_cast<std::size_t>(static_cast<double>(size_) *
                                            config_.grow_factor)));
      ++grows_;
    }
    size_ = std::clamp(size_, config_.min_size, config_.max_size);
    min_seen_ = std::min(min_seen_, size_);
    max_seen_ = std::max(max_seen_, size_);
    return size_;
  }

  std::uint64_t grows() const { return grows_; }
  std::uint64_t shrinks() const { return shrinks_; }
  std::size_t min_seen() const { return min_seen_; }
  std::size_t max_seen() const { return max_seen_; }

 private:
  AdaptiveBatcherConfig config_;
  std::size_t size_ = 0;
  std::size_t min_seen_ = 0;
  std::size_t max_seen_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
};

}  // namespace gkgpu::pipeline

#endif  // GKGPU_PIPELINE_ADAPTIVE_HPP
