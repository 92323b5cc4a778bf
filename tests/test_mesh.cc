/**
 * @file
 * Unit tests for the mesh NoC model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hh"
#include "event/event_queue.hh"
#include "mem/address_map.hh"
#include "noc/mesh.hh"

using namespace spp;

namespace {

struct MeshFixture : ::testing::Test
{
    Config cfg;
    EventQueue eq;
    Mesh mesh{cfg, eq};
};

} // namespace

TEST_F(MeshFixture, HopsAreManhattanDistance)
{
    // 4x4 mesh: tile = y * 4 + x.
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 3), 3u);
    EXPECT_EQ(mesh.hops(0, 12), 3u);
    EXPECT_EQ(mesh.hops(0, 15), 6u);
    EXPECT_EQ(mesh.hops(5, 10), 2u);
    EXPECT_EQ(mesh.hops(10, 5), 2u);
}

TEST_F(MeshFixture, ZeroLoadLatency)
{
    // router 2 + hops * (link 1 + router 2) + serialization.
    const Tick one_hop_ctrl = mesh.zeroLoadLatency(1, 8);
    EXPECT_EQ(one_hop_ctrl, 2u + 3u + 1u);
    const Tick data = mesh.zeroLoadLatency(2, 72);
    EXPECT_EQ(data, 2u + 6u + 5u); // ceil(72/16) = 5.
    EXPECT_EQ(mesh.zeroLoadLatency(0, 72), 2u); // Local: router only.
}

TEST_F(MeshFixture, DeliveryAtExpectedTick)
{
    Tick delivered = 0;
    Packet p{0, 3, 8, TrafficClass::request};
    eq.schedule(mesh.inject(p), [&] { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, mesh.zeroLoadLatency(3, 8));
}

TEST_F(MeshFixture, LocalDelivery)
{
    Tick delivered = 0;
    eq.schedule(mesh.inject(Packet{5, 5, 8, TrafficClass::request}),
                [&] { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, cfg.routerLatency);
}

TEST_F(MeshFixture, BytesAccounting)
{
    eq.schedule(mesh.inject(Packet{0, 1, 8, TrafficClass::request}), [] {});
    eq.schedule(mesh.inject(Packet{0, 2, 72, TrafficClass::data}), [] {});
    eq.run();
    EXPECT_EQ(mesh.stats().packets.value(), 2u);
    EXPECT_EQ(mesh.stats().flitBytes.value(), 80u);
    EXPECT_EQ(mesh.stats().byteHops.value(), 8u * 1 + 72u * 2);
    EXPECT_EQ(mesh.stats().byteRouters.value(), 8u * 2 + 72u * 3);
    EXPECT_EQ(mesh.stats().bytesOf(TrafficClass::request), 8u);
    EXPECT_EQ(mesh.stats().bytesOf(TrafficClass::data), 72u);
}

TEST_F(MeshFixture, ContentionDelaysSecondPacket)
{
    // Two large packets on the same path: the second head waits.
    Tick t1 = 0, t2 = 0;
    eq.schedule(mesh.inject(Packet{0, 3, 72, TrafficClass::data}),
                [&] { t1 = eq.curTick(); });
    eq.schedule(mesh.inject(Packet{0, 3, 72, TrafficClass::data}),
                [&] { t2 = eq.curTick(); });
    eq.run();
    EXPECT_GT(t2, t1);
}

TEST_F(MeshFixture, SameRouteIsFifo)
{
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        eq.schedule(mesh.inject(Packet{0, 15, 8, TrafficClass::request}),
                    [&order, i] { order.push_back(i); });
    }
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(MeshNoContention, ZeroLoadWhenDisabled)
{
    Config cfg;
    cfg.modelContention = false;
    EventQueue eq;
    Mesh mesh(cfg, eq);
    Tick t1 = 0, t2 = 0;
    eq.schedule(mesh.inject(Packet{0, 3, 72, TrafficClass::data}),
                [&] { t1 = eq.curTick(); });
    eq.schedule(mesh.inject(Packet{0, 3, 72, TrafficClass::data}),
                [&] { t2 = eq.curTick(); });
    eq.run();
    EXPECT_EQ(t1, t2); // No queueing in the zero-load model.
}

TEST(MeshLatencySample, RecordsLatencies)
{
    Config cfg;
    EventQueue eq;
    Mesh mesh(cfg, eq);
    eq.schedule(mesh.inject(Packet{0, 15, 8, TrafficClass::request}), [] {});
    eq.run();
    EXPECT_EQ(mesh.stats().packetLatency.count(), 1u);
    EXPECT_GT(mesh.stats().packetLatency.mean(), 0.0);
}

namespace {

using Links = std::vector<std::size_t>;

/** Send one packet src -> dst on a fresh mesh; @return the indices
 * (tile * 4 + direction) of the links it kept busy, ascending. */
Links
busyLinks(const Config &cfg, CoreId src, CoreId dst)
{
    EventQueue eq;
    Mesh mesh(cfg, eq);
    eq.schedule(mesh.inject(Packet{src, dst, 8, TrafficClass::request}),
                [] {});
    eq.run();
    Links busy;
    for (std::size_t i = 0; i < mesh.linkBusyTicks().size(); ++i)
        if (mesh.linkBusyTicks()[i] != 0)
            busy.push_back(i);
    return busy;
}

} // namespace

TEST(MeshLinks, SquareMeshRoutesXThenY)
{
    // 4x4, tile = y * 4 + x; directions 0 = +X, 1 = -X, 2 = +Y, 3 = -Y.
    const Config cfg;
    // (1,0) -> (2,3): +X from 1, then +Y from 2, 6, 10.
    EXPECT_EQ(busyLinks(cfg, 1, 14), (Links{1 * 4 + 0, 2 * 4 + 2,
                                            6 * 4 + 2, 10 * 4 + 2}));
    // (2,3) -> (1,0): -X from 14, then -Y from 13, 9, 5.
    EXPECT_EQ(busyLinks(cfg, 14, 1), (Links{5 * 4 + 3, 9 * 4 + 3,
                                            13 * 4 + 3, 14 * 4 + 1}));
    // (3,0) -> (0,3): -X from 3, 2, 1, then +Y from 0, 4, 8.
    EXPECT_EQ(busyLinks(cfg, 3, 12),
              (Links{0 * 4 + 2, 1 * 4 + 1, 2 * 4 + 1, 3 * 4 + 1,
                     4 * 4 + 2, 8 * 4 + 2}));
    // (0,3) -> (3,0): +X from 12, 13, 14, then -Y from 15, 11, 7.
    EXPECT_EQ(busyLinks(cfg, 12, 3),
              (Links{7 * 4 + 3, 11 * 4 + 3, 12 * 4 + 0, 13 * 4 + 0,
                     14 * 4 + 0, 15 * 4 + 3}));
}

TEST(MeshLinks, RectangularMeshRoutesXThenY)
{
    // 3 columns x 4 rows: a Y hop steps the tile by meshX = 3.
    Config cfg;
    cfg.numCores = 12;
    cfg.meshX = 3;
    cfg.meshY = 4;
    cfg.validate();
    // (0,0) -> (2,3): +X from 0, 1, then +Y from 2, 5, 8.
    EXPECT_EQ(busyLinks(cfg, 0, 11),
              (Links{0 * 4 + 0, 1 * 4 + 0, 2 * 4 + 2, 5 * 4 + 2,
                     8 * 4 + 2}));
    // (2,3) -> (0,0): -X from 11, 10, then -Y from 9, 6, 3.
    EXPECT_EQ(busyLinks(cfg, 11, 0),
              (Links{3 * 4 + 3, 6 * 4 + 3, 9 * 4 + 3, 10 * 4 + 1,
                     11 * 4 + 1}));
    // (2,0) -> (0,3): -X from 2, 1, then +Y from 0, 3, 6.
    EXPECT_EQ(busyLinks(cfg, 2, 9),
              (Links{0 * 4 + 2, 1 * 4 + 1, 2 * 4 + 1, 3 * 4 + 2,
                     6 * 4 + 2}));
    // (0,3) -> (2,0): +X from 9, 10, then -Y from 11, 8, 5.
    EXPECT_EQ(busyLinks(cfg, 9, 2),
              (Links{5 * 4 + 3, 8 * 4 + 3, 9 * 4 + 0, 10 * 4 + 0,
                     11 * 4 + 3}));

    // One column: every hop is a Y hop, although it steps the tile
    // by 1, so it leaves on direction 2 or 3, never 0 or 1.
    cfg.numCores = 4;
    cfg.meshX = 1;
    cfg.meshY = 4;
    cfg.validate();
    EXPECT_EQ(busyLinks(cfg, 0, 3),
              (Links{0 * 4 + 2, 1 * 4 + 2, 2 * 4 + 2}));
    EXPECT_EQ(busyLinks(cfg, 3, 0),
              (Links{1 * 4 + 3, 2 * 4 + 3, 3 * 4 + 3}));
}

TEST(MeshGeometry, DeathOnWrappingProduct)
{
    // 268435457 * 16 wraps to 16 in 32 bits.
    Config cfg;
    cfg.meshX = 268435457;
    cfg.meshY = 16;
    EventQueue eq;
    EXPECT_DEATH({ Mesh mesh(cfg, eq); }, "does not cover");
}

TEST(MeshRectangular, RoutesAndHomesStayInRange)
{
    // 4x2 mesh: tile = y * 4 + x; nothing may assume a square grid.
    Config cfg;
    cfg.numCores = 8;
    cfg.meshX = 4;
    cfg.meshY = 2;
    cfg.validate();
    EventQueue eq;
    Mesh mesh(cfg, eq);

    EXPECT_EQ(mesh.hops(0, 7), 4u);  // (0,0) -> (3,1).
    EXPECT_EQ(mesh.hops(3, 4), 4u);  // (3,0) -> (0,1).
    EXPECT_EQ(mesh.hops(2, 6), 1u);  // Straight down one row.

    // Contention routing reserves every hop's link; an idle mesh
    // must agree with the zero-load latency.
    Tick delivered = 0;
    eq.schedule(mesh.inject(Packet{0, 7, 8, TrafficClass::request}),
                [&] { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, mesh.zeroLoadLatency(4, 8));

    AddressMap map(cfg);
    for (Addr a = 0; a < 64 * cfg.lineBytes; a += cfg.lineBytes)
        EXPECT_LT(map.homeNode(a), cfg.numCores);
}

TEST(MeshRectangular, TallMeshDelivers)
{
    // 2x8: more rows than columns.
    Config cfg;
    cfg.numCores = 16;
    cfg.meshX = 2;
    cfg.meshY = 8;
    cfg.validate();
    EventQueue eq;
    Mesh mesh(cfg, eq);
    EXPECT_EQ(mesh.hops(0, 15), 8u); // (0,0) -> (1,7).
    Tick delivered = 0;
    eq.schedule(mesh.inject(Packet{15, 0, 72, TrafficClass::data}),
                [&] { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered, mesh.zeroLoadLatency(8, 72));
}
