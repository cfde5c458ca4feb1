// System configuration (GateKeeper-GPU Sec. 3.1): from the device's
// properties and free global memory, derive the per-thread memory load, the
// batch size (filtrations per kernel call), and the launch geometry, "to
// fully utilize GPU for boosting performance ... without the user's
// concern".  In the multi-GPU model every device receives an equal batch.
#ifndef GKGPU_CORE_CONFIG_HPP
#define GKGPU_CORE_CONFIG_HPP

#include <cstddef>

#include "filters/gatekeeper_core.hpp"
#include "gpusim/device.hpp"

namespace gkgpu {

/// Who performs the 2-bit encoding (Sec. 3.3 provides both designs).
enum class EncodingActor { kHost, kDevice };

inline const char* EncodingActorName(EncodingActor a) {
  return a == EncodingActor::kHost ? "host" : "device";
}

struct EngineConfig {
  /// Read length and error threshold are compile-time constants in the
  /// CUDA build (fixed-size kernel arrays); here they are plan-time
  /// constants validated against the library's fixed capacities.
  int read_length = 100;
  int error_threshold = 5;
  EncodingActor encoding = EncodingActor::kHost;
  GateKeeperParams algorithm{};
  int threads_per_block = 1024;
  /// Fraction of free global memory the configuration step may claim.
  double mem_safety_factor = 0.85;
  /// Optional cap on filtrations per kernel call (0 = derive from free
  /// device memory).  Lets callers trade batch size for memory, and lets
  /// tests exercise multi-round execution.
  std::size_t max_pairs_per_batch = 0;
};

/// The derived execution plan for one device.
struct SystemPlan {
  std::size_t pairs_per_batch = 0;     // filtrations per kernel call
  int threads_per_block = 0;
  std::size_t thread_load_bytes = 0;   // stack frame per filtration
  std::size_t pair_buffer_bytes = 0;   // unified-memory bytes per pair
  gpusim::KernelCost kernel_cost;
  gpusim::OccupancyResult occupancy;
};

/// Approximate stack frame of one filtration (bitmasks + shift scratch),
/// the "thread load" of Sec. 3.1.
std::size_t EstimateThreadLoad(int length, int e);

/// Operation/byte cost model of one kernel thread, used by the simulated
/// device's timing.  Constants are calibrated so the reproduced tables
/// match the paper's relative shapes (see EXPERIMENTS.md).
gpusim::KernelCost EstimateKernelCost(int length, int e, bool device_encodes);

/// Runs the system-configuration step against a device.
SystemPlan ConfigureSystem(const gpusim::Device& device,
                           const EngineConfig& config);

}  // namespace gkgpu

#endif  // GKGPU_CORE_CONFIG_HPP
