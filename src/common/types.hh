/**
 * @file
 * Fundamental scalar types shared across the simulator.
 */

#ifndef SPP_COMMON_TYPES_HH
#define SPP_COMMON_TYPES_HH

#include <cstdint>

namespace spp {

/** Simulated time, in cycles of the core/NoC clock. */
using Tick = std::uint64_t;

/** A physical (simulated) memory address. */
using Addr = std::uint64_t;

/** Identifier of a physical core / tile. */
using CoreId = std::uint32_t;

/** Program counter of a (synthetic) static instruction or sync-point. */
using Pc = std::uint64_t;

/** Sentinel for "no core". */
inline constexpr CoreId invalidCore = ~CoreId{0};

/** Sentinel tick meaning "never" / unscheduled. */
inline constexpr Tick maxTick = ~Tick{0};

/**
 * Hard upper bound on system size: the compile-time capacity of
 * CoreSet's multi-word bit mask. Override with -DSPP_MAX_CORES=N to
 * trade CoreSet footprint against maximum machine size; the default
 * covers a 32x32 mesh.
 */
#ifndef SPP_MAX_CORES
#define SPP_MAX_CORES 1024
#endif
inline constexpr unsigned maxCores = SPP_MAX_CORES;
static_assert(maxCores >= 2 && maxCores <= 65536,
              "SPP_MAX_CORES out of the supported [2, 65536] range");

/** Modelled physical address width; storage cost models derive tag
 * widths from this rather than hard-coding them. */
inline constexpr unsigned physAddrBits = 48;

} // namespace spp

#endif // SPP_COMMON_TYPES_HH
