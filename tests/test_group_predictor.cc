/**
 * @file
 * Unit tests for the Martin-style group predictors (ADDR/INST/UNI):
 * train-up counters, periodic train-down, thresholding, indexing and
 * the capacity-limited table.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "predict/group_predictor.hh"

using namespace spp;

namespace {

PredictionQuery
query(CoreId core, Addr macro, Pc pc, bool write = false)
{
    PredictionQuery q;
    q.core = core;
    q.line = macro << 8;
    q.macroBlock = macro;
    q.pc = pc;
    q.isWrite = write;
    return q;
}

} // namespace

TEST(GroupEntry, TrainUpToThreshold)
{
    GroupEntry e(16);
    EXPECT_TRUE(e.predict(2).empty());
    e.train(CoreSet{4}, 1000);
    EXPECT_TRUE(e.predict(2).empty()); // Counter 1 < threshold 2.
    e.train(CoreSet{4}, 1000);
    EXPECT_EQ(e.predict(2), CoreSet{4});
}

TEST(GroupEntry, CounterSaturates)
{
    GroupEntry e(16);
    for (int i = 0; i < 10; ++i)
        e.train(CoreSet{4}, 1000);
    EXPECT_EQ(e.counter(4), GroupEntry::counterMax);
}

TEST(GroupEntryDeathTest, TrainPastTheEntryDies)
{
    GroupEntry e(16);
    e.train(CoreSet{15}, 1000);
    EXPECT_DEATH(e.train(CoreSet{16}, 1000),
                 "core 16 trained into a 16-core entry");
}

TEST(GroupEntry, TrainDownDecaysInactive)
{
    GroupEntry e(16);
    e.train(CoreSet{4}, 4);
    e.train(CoreSet{4}, 4);
    e.train(CoreSet{4}, 4);
    ASSERT_EQ(e.predict(2), CoreSet{4});
    // Keep training a different core; the rollover (period 4) will
    // decay core 4 out.
    for (int i = 0; i < 12; ++i)
        e.train(CoreSet{9}, 4);
    EXPECT_FALSE(e.predict(2).test(4));
    EXPECT_TRUE(e.predict(2).test(9));
}

TEST(GroupTable, UnlimitedGrows)
{
    GroupTable t(0, 16);
    for (std::uint64_t k = 0; k < 100; ++k)
        t.entry(k);
    EXPECT_EQ(t.size(), 100u);
}

TEST(GroupTable, CapacityEvictsLru)
{
    GroupTable t(2, 16);
    t.entry(1).train(CoreSet{1}, 1000);
    t.entry(2).train(CoreSet{2}, 1000);
    t.entry(1); // Touch 1: key 2 becomes LRU.
    t.entry(3); // Evicts key 2.
    EXPECT_NE(t.peek(1), nullptr);
    EXPECT_EQ(t.peek(2), nullptr);
    EXPECT_NE(t.peek(3), nullptr);
    EXPECT_EQ(t.size(), 2u);
}

TEST(GroupTable, PeekDoesNotAllocate)
{
    GroupTable t(0, 16);
    EXPECT_EQ(t.peek(7), nullptr);
    EXPECT_EQ(t.size(), 0u);
}

namespace {

struct GroupPredFixture : ::testing::Test
{
    Config cfg;
};

} // namespace

TEST_F(GroupPredFixture, AddrIndexesByMacroBlock)
{
    GroupPredictor p(cfg, 16, GroupIndex::macroBlock);
    p.trainResponse(query(0, 0x10, 0xaa), CoreSet{5});
    p.trainResponse(query(0, 0x10, 0xbb), CoreSet{5}); // Other PC.
    // Same macroblock, any PC -> prediction.
    EXPECT_EQ(p.predict(query(0, 0x10, 0xcc)).targets, CoreSet{5});
    // Different macroblock -> nothing.
    EXPECT_FALSE(p.predict(query(0, 0x11, 0xaa)).valid());
}

TEST_F(GroupPredFixture, InstIndexesByPc)
{
    GroupPredictor p(cfg, 16, GroupIndex::instruction);
    p.trainResponse(query(0, 0x10, 0xaa), CoreSet{5});
    p.trainResponse(query(0, 0x20, 0xaa), CoreSet{5}); // Other block.
    EXPECT_EQ(p.predict(query(0, 0x30, 0xaa)).targets, CoreSet{5});
    EXPECT_FALSE(p.predict(query(0, 0x10, 0xbb)).valid());
}

TEST_F(GroupPredFixture, UniIgnoresIndex)
{
    GroupPredictor p(cfg, 16, GroupIndex::none);
    p.trainResponse(query(0, 0x10, 0xaa), CoreSet{5});
    p.trainResponse(query(0, 0x99, 0xbb), CoreSet{5});
    EXPECT_EQ(p.predict(query(0, 0x77, 0xcc)).targets, CoreSet{5});
}

TEST_F(GroupPredFixture, PerCoreTables)
{
    GroupPredictor p(cfg, 16, GroupIndex::macroBlock);
    p.trainResponse(query(0, 0x10, 0xaa), CoreSet{5});
    p.trainResponse(query(0, 0x10, 0xaa), CoreSet{5});
    EXPECT_TRUE(p.predict(query(0, 0x10, 0xaa)).valid());
    EXPECT_FALSE(p.predict(query(1, 0x10, 0xaa)).valid());
}

TEST_F(GroupPredFixture, ExternalRequestsTrain)
{
    GroupPredictor p(cfg, 16, GroupIndex::macroBlock);
    // Core 3 observes two external requests from core 8 on block
    // 0x10: core 8 becomes a predicted target for core 3.
    p.trainExternal(3, 0x1000, 0x10, 0xaa, 8, true);
    p.trainExternal(3, 0x1000, 0x10, 0xaa, 8, false);
    EXPECT_EQ(p.predict(query(3, 0x10, 0xaa)).targets, CoreSet{8});
}

TEST_F(GroupPredFixture, SelfExcluded)
{
    GroupPredictor p(cfg, 16, GroupIndex::none);
    p.trainResponse(query(2, 0x10, 0xaa), CoreSet{2, 7});
    p.trainResponse(query(2, 0x10, 0xaa), CoreSet{2, 7});
    Prediction pred = p.predict(query(2, 0x10, 0xaa));
    ASSERT_TRUE(pred.valid());
    EXPECT_FALSE(pred.targets.test(2));
}

TEST_F(GroupPredFixture, SourceIsTable)
{
    GroupPredictor p(cfg, 16, GroupIndex::none);
    p.trainResponse(query(0, 0x10, 0xaa), CoreSet{5});
    p.trainResponse(query(0, 0x10, 0xaa), CoreSet{5});
    EXPECT_EQ(p.predict(query(0, 0x10, 0xaa)).source,
              PredSource::table);
}

TEST_F(GroupPredFixture, StorageTracksEntries)
{
    GroupPredictor p(cfg, 16, GroupIndex::macroBlock);
    const auto empty_bits = p.storageBits();
    p.trainResponse(query(0, 0x10, 0xaa), CoreSet{5});
    p.trainResponse(query(0, 0x20, 0xaa), CoreSet{5});
    // 2 entries x 37 bits for a 16-core machine.
    EXPECT_EQ(p.storageBits() - empty_bits, 2u * 37u);
    EXPECT_GT(p.tableAccesses(), 0u);
}

TEST_F(GroupPredFixture, CapacityLimitForgetting)
{
    cfg.predictorEntries = 4;
    GroupPredictor p(cfg, 16, GroupIndex::macroBlock);
    p.trainResponse(query(0, 0x1, 0xaa), CoreSet{5});
    p.trainResponse(query(0, 0x1, 0xaa), CoreSet{5});
    EXPECT_TRUE(p.predict(query(0, 0x1, 0xaa)).valid());
    // Touch four other blocks: block 1 falls out of the table.
    for (Addr m = 2; m <= 5; ++m)
        p.trainResponse(query(0, m, 0xaa), CoreSet{5});
    EXPECT_FALSE(p.predict(query(0, 0x1, 0xaa)).valid());
}
