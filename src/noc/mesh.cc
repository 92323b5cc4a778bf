#include "noc/mesh.hh"

#include <cstdlib>

namespace spp {

Mesh::Mesh(const Config &cfg, EventQueue &eq)
    : cfg_(cfg), eq_(eq), n_cores_(cfg.numCores),
      link_free_(static_cast<std::size_t>(cfg.numCores) * 4, 0),
      link_busy_(static_cast<std::size_t>(cfg.numCores) * 4, 0)
{
    // Rectangular meshes are fine; a mesh that does not cover the
    // core count would silently mis-route (tile = y * meshX + x).
    SPP_ASSERT(std::uint64_t{cfg.meshX} * cfg.meshY == cfg.numCores,
               "mesh {}x{} does not cover {} cores", cfg.meshX,
               cfg.meshY, cfg.numCores);
}

unsigned
Mesh::hops(CoreId src, CoreId dst) const
{
    const int sx = static_cast<int>(src % cfg_.meshX);
    const int sy = static_cast<int>(src / cfg_.meshX);
    const int dx = static_cast<int>(dst % cfg_.meshX);
    const int dy = static_cast<int>(dst / cfg_.meshX);
    return static_cast<unsigned>(std::abs(sx - dx) + std::abs(sy - dy));
}

Tick
Mesh::zeroLoadLatency(unsigned n_hops, unsigned bytes) const
{
    const Tick serialization =
        (bytes + cfg_.linkBytesPerCycle - 1) / cfg_.linkBytesPerCycle;
    return cfg_.routerLatency // Injection router.
         + n_hops * (cfg_.linkLatency + cfg_.routerLatency)
         + (n_hops ? serialization : 0);
}

Tick
Mesh::inject(const Packet &pkt)
{
    SPP_ASSERT(pkt.src < n_cores_ && pkt.dst < n_cores_,
               "packet endpoints out of range: {} -> {}", pkt.src,
               pkt.dst);

    const Tick now = eq_.curTick();
    const unsigned n_hops = hops(pkt.src, pkt.dst);

    ++stats_.packets;
    stats_.flitBytes += pkt.bytes;
    stats_.byteHops += static_cast<std::uint64_t>(pkt.bytes) * n_hops;
    stats_.byteRouters +=
        static_cast<std::uint64_t>(pkt.bytes) * (n_hops + 1);
    stats_.routerTraversals += n_hops + 1;
    stats_.bytesByClass[static_cast<std::size_t>(pkt.cls)] += pkt.bytes;

    Tick arrive;
    if (!cfg_.modelContention || n_hops == 0) {
        arrive = now + zeroLoadLatency(n_hops, pkt.bytes);
    } else {
        const Tick serialization =
            (pkt.bytes + cfg_.linkBytesPerCycle - 1) /
            cfg_.linkBytesPerCycle;
        // Head traversal with per-link reservation: the head may wait
        // for a busy link; each link stays busy for the packet's
        // serialization time once the head passes.
        Tick head = now + cfg_.routerLatency;
        auto reserve = [&](std::size_t link) {
            Tick &free_at = link_free_[link];
            if (free_at > head)
                head = free_at;              // Queueing delay.
            free_at = head + serialization;  // Occupy for the body.
            link_busy_[link] += serialization;
            head += cfg_.linkLatency + cfg_.routerLatency;
        };
        // X-Y route: X hops leave tile * 4 + 0 (+X) or 1 (-X), then Y
        // hops leave tile * 4 + 2 (+Y) or 3 (-Y).
        const unsigned mesh_x = cfg_.meshX;
        const unsigned src_x = pkt.src % mesh_x;
        const unsigned dst_x = pkt.dst % mesh_x;
        std::size_t tile = pkt.src;
        for (unsigned x = src_x; x < dst_x; ++x)
            reserve(tile++ * 4 + 0);
        for (unsigned x = src_x; x > dst_x; --x)
            reserve(tile-- * 4 + 1);
        for (; tile < pkt.dst; tile += mesh_x)
            reserve(tile * 4 + 2);
        for (; tile > pkt.dst; tile -= mesh_x)
            reserve(tile * 4 + 3);
        // Tail arrives a serialization time after the head.
        arrive = head + serialization;
    }

    stats_.packetLatency.sample(static_cast<double>(arrive - now));
    return arrive;
}

} // namespace spp
