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
    SPP_ASSERT(cfg.meshX * cfg.meshY == cfg.numCores,
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

std::size_t
Mesh::linkIndex(unsigned a, unsigned b) const
{
    // Direction encoding: 0 = +X, 1 = -X, 2 = +Y, 3 = -Y.
    unsigned dir;
    if (b == a + 1) {
        dir = 0;
    } else if (b + 1 == a) {
        dir = 1;
    } else if (b == a + cfg_.meshX) {
        dir = 2;
    } else {
        SPP_ASSERT(b + cfg_.meshX == a, "non-adjacent hop {} -> {}", a, b);
        dir = 3;
    }
    return static_cast<std::size_t>(a) * 4 + dir;
}

void
Mesh::route(CoreId src, CoreId dst, std::vector<unsigned> &path) const
{
    path.clear();
    unsigned cur = src;
    path.push_back(cur);
    const unsigned dst_x = dst % cfg_.meshX;
    // X dimension first...
    while (cur % cfg_.meshX != dst_x) {
        cur = cur % cfg_.meshX < dst_x ? cur + 1 : cur - 1;
        path.push_back(cur);
    }
    // ...then Y.
    while (cur != dst) {
        cur = cur < dst ? cur + cfg_.meshX : cur - cfg_.meshX;
        path.push_back(cur);
    }
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

void
Mesh::send(const Packet &pkt, DeliverFn on_delivery)
{
    eq_.schedule(inject(pkt), std::move(on_delivery));
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
        route(pkt.src, pkt.dst, path_scratch_);
        // Head traversal with per-link reservation: the head may wait
        // for a busy link; each link stays busy for the packet's
        // serialization time once the head passes.
        Tick head = now + cfg_.routerLatency;
        for (std::size_t i = 0; i + 1 < path_scratch_.size(); ++i) {
            const std::size_t idx =
                linkIndex(path_scratch_[i], path_scratch_[i + 1]);
            Tick &free_at = link_free_[idx];
            if (free_at > head)
                head = free_at;              // Queueing delay.
            free_at = head + serialization;  // Occupy for the body.
            link_busy_[idx] += serialization;
            head += cfg_.linkLatency + cfg_.routerLatency;
        }
        // Tail arrives a serialization time after the head.
        arrive = head + serialization;
    }

    stats_.packetLatency.sample(static_cast<double>(arrive - now));
    return arrive;
}

} // namespace spp
