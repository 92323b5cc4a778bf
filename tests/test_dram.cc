/**
 * @file
 * Tests for the banked open-row DRAM model and its integration with
 * the memory system's demand-fetch path.
 */

#include <gtest/gtest.h>

#include "analysis/experiment.hh"
#include "harness.hh"
#include "mem/dram.hh"

using namespace spp;
using namespace spp::test;

namespace {

struct DramFixture : ::testing::Test
{
    Config cfg;
    AddressMap map{cfg};
    DramFixture() { cfg.enableDram = true; }
};

/** A line mapping to home 0, bank 0, row r. */
Addr
lineAt(const Config &cfg, Addr row, Addr offset_in_row = 0)
{
    // local_line = row * rowLines * banks + offset (bank 0 needs
    // offset < rowLines); global line = local_line * numCores.
    const Addr local = (row * cfg.dramBanks * cfg.dramRowLines) +
        offset_in_row;
    return local * cfg.numCores * cfg.lineBytes;
}

} // namespace

TEST_F(DramFixture, ClosedBankPaysNominalLatency)
{
    DramModel d(cfg, map);
    EXPECT_EQ(d.accessLatency(lineAt(cfg, 0), 0), cfg.memLatency);
}

TEST_F(DramFixture, RowHitIsFaster)
{
    DramModel d(cfg, map);
    d.accessLatency(lineAt(cfg, 0), 0);
    const Tick hit = d.accessLatency(lineAt(cfg, 0, 1), 1000);
    EXPECT_EQ(hit, cfg.dramRowHitLatency);
    EXPECT_EQ(d.stats().rowHits.value(), 1u);
}

TEST_F(DramFixture, RowConflictIsSlower)
{
    DramModel d(cfg, map);
    d.accessLatency(lineAt(cfg, 0), 0);
    const Tick conflict = d.accessLatency(lineAt(cfg, 7), 1000);
    EXPECT_EQ(conflict, cfg.dramRowConflictLatency);
    EXPECT_EQ(d.stats().rowConflicts.value(), 1u);
}

TEST_F(DramFixture, BusyBankQueues)
{
    DramModel d(cfg, map);
    d.accessLatency(lineAt(cfg, 0), 0); // Busy until 150.
    const Tick t = d.accessLatency(lineAt(cfg, 0, 1), 10);
    // Waits 140 cycles, then a row hit.
    EXPECT_EQ(t, (150 - 10) + cfg.dramRowHitLatency);
    EXPECT_EQ(d.stats().bankBusyWaits.value(), 1u);
}

TEST_F(DramFixture, DifferentBanksDontQueue)
{
    DramModel d(cfg, map);
    d.accessLatency(lineAt(cfg, 0), 0);
    // Offset by one row's worth of lines -> next bank.
    const Addr other_bank =
        (Addr{cfg.dramRowLines}) * cfg.numCores * cfg.lineBytes;
    const Tick t = d.accessLatency(other_bank, 10);
    EXPECT_EQ(t, cfg.memLatency);
    EXPECT_EQ(d.stats().bankBusyWaits.value(), 0u);
}

TEST(DramSystem, StreamingGetsRowHits)
{
    Config cfg = ProtoHarness::smallConfig();
    cfg.enableDram = true;
    ProtoHarness h(cfg);
    // Stream sequential lines: after the cold accesses warm the rows,
    // most fetches should row-hit.
    for (Addr i = 0; i < 64; ++i)
        h.access(0, 0x900000 + i * 64, false);
    ASSERT_NE(h.sys->dram(), nullptr);
    EXPECT_GT(h.sys->dram()->stats().rowHits.value(), 32u);
}

TEST(DramSystem, WorkloadSeesRowBehaviour)
{
    // Sixteen concurrent private streams interleave at every
    // controller: the model must expose both row hits (sequential
    // locality) and bank pressure (contention) instead of the flat
    // 150-cycle fiction.
    auto run = [](bool dram) {
        ExperimentConfig cfg;
        cfg.scale = 0.5;
        cfg.config.enableDram = dram;
        return runExperiment("radix", cfg); // Streaming-heavy.
    };
    ExperimentResult fixed = run(false);
    ExperimentResult dram = run(true);
    EXPECT_GT(dram.run.ticks, 0u);
    EXPECT_NE(dram.run.mem.nonCommMissLatency.mean(),
              fixed.run.mem.nonCommMissLatency.mean());
    // The non-DRAM run is bit-identical in miss counts (timing-only
    // model change).
    EXPECT_EQ(dram.run.mem.misses.value(),
              fixed.run.mem.misses.value());
}

TEST(DramSystem, AllProtocolsRunWithDram)
{
    for (auto [proto, kind] :
         {std::pair{Protocol::directory, PredictorKind::none},
          std::pair{Protocol::broadcast, PredictorKind::none},
          std::pair{Protocol::predicted, PredictorKind::sp},
          std::pair{Protocol::multicast, PredictorKind::sp}}) {
        ExperimentConfig cfg;
        cfg.scale = 0.2;
        cfg.config.protocol = proto;
        cfg.config.predictor = kind;
        cfg.config.enableDram = true;
        ExperimentResult r = runExperiment("ocean", cfg);
        EXPECT_GT(r.run.ticks, 0u) << toString(proto);
    }
}
