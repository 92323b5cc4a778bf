/**
 * @file
 * 2D mesh network-on-chip model.
 *
 * Topology: meshX x meshY tiles, dimension-order (X then Y) routing,
 * 2-stage routers and single-cycle links (Table 4). Contention is
 * modelled at link granularity: each directional link keeps a
 * busy-until tick, a packet reserves its links hop by hop and its
 * serialization time is bytes / linkBytesPerCycle on each link. This
 * reproduces hop latency, serialization and queueing delay without
 * flit-level simulation (the paper reports congestion stays low).
 *
 * inject() accounts a packet's bytes per traffic class for the
 * bandwidth/energy figures and returns its arrival tick; the caller
 * schedules the delivery (MemSys on the EventQueue, the model
 * checker through its own interleaving explorer).
 */

#ifndef SPP_NOC_MESH_HH
#define SPP_NOC_MESH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "event/event_queue.hh"
#include "noc/packet.hh"

namespace spp {

/** Aggregate NoC traffic statistics for one run. */
struct NocStats
{
    Counter packets;
    Counter flitBytes;              ///< Bytes injected (payload).
    Counter byteHops;               ///< Sum over packets of bytes*hops.
    Counter byteRouters;            ///< Sum of bytes*(hops+1).
    Counter routerTraversals;       ///< Sum over packets of hops+1.
    Average packetLatency;          ///< Injection to delivery.

    /** Bytes injected, by traffic class (index = TrafficClass). */
    std::array<std::uint64_t, 6> bytesByClass{};

    std::uint64_t
    bytesOf(TrafficClass cls) const
    {
        return bytesByClass[static_cast<std::size_t>(cls)];
    }
};

/**
 * The mesh interconnect. One instance per simulated system.
 */
class Mesh
{
  public:
    Mesh(const Config &cfg, EventQueue &eq);

    /** Manhattan hop count between two tiles. */
    unsigned hops(CoreId src, CoreId dst) const;

    /**
     * Inject @p pkt: account its traffic, reserve its links (under
     * contention modeling) and return the tick it arrives at. Local
     * (src == dst) packets arrive after the router pipeline only.
     */
    Tick inject(const Packet &pkt);

    /**
     * Zero-load latency of a packet of @p bytes over @p n_hops hops:
     * per-hop router + link plus serialization on the final link.
     */
    Tick zeroLoadLatency(unsigned n_hops, unsigned bytes) const;

    const NocStats &stats() const { return stats_; }

    /**
     * Cumulative ticks each directional link has been reserved for
     * packet serialization; index = tile * 4 + direction (0 = +X,
     * 1 = -X, 2 = +Y, 3 = -Y). Zeros when contention modeling is
     * off.
     */
    const std::vector<std::uint64_t> &linkBusyTicks() const
    {
        return link_busy_;
    }

    unsigned numCores() const { return n_cores_; }

  private:
    const Config &cfg_;
    EventQueue &eq_;
    unsigned n_cores_;
    /** busy-until tick per directional link (n_cores * 4 entries). */
    std::vector<Tick> link_free_;
    /** Cumulative serialization-busy ticks per directional link. */
    std::vector<std::uint64_t> link_busy_;
    NocStats stats_;
};

} // namespace spp

#endif // SPP_NOC_MESH_HH
