/**
 * @file
 * Unit tests for the communication counters, hot-set extraction and
 * the SP-table.
 */

#include <gtest/gtest.h>

#include "core/comm_counters.hh"
#include "core/sp_table.hh"

using namespace spp;

// --- CommCounters ---

TEST(CommCounters, EmptyHotSet)
{
    CommCounters c;
    EXPECT_TRUE(c.hotSet(0.10).empty());
    EXPECT_EQ(c.total(), 0u);
}

TEST(CommCounters, SingleHotTarget)
{
    CommCounters c;
    for (int i = 0; i < 20; ++i)
        c.record(CoreSet{5});
    c.record(CoreSet{3});
    // Core 5 has 20/21 of the volume, core 3 under 10%.
    const CoreSet hot = c.hotSet(0.10);
    EXPECT_EQ(hot, CoreSet{5});
}

TEST(CommCounters, ThresholdBoundary)
{
    CommCounters c;
    // 9 to core 1, 1 to core 2: core 2 sits exactly at 10%.
    for (int i = 0; i < 9; ++i)
        c.record(CoreSet{1});
    c.record(CoreSet{2});
    const CoreSet hot = c.hotSet(0.10);
    EXPECT_TRUE(hot.test(1));
    EXPECT_TRUE(hot.test(2)); // >= threshold is hot.
    EXPECT_FALSE(c.hotSet(0.20).test(2));
}

TEST(CommCounters, MultiTargetRecord)
{
    CommCounters c;
    c.record(CoreSet{1, 2, 3});
    EXPECT_EQ(c.total(), 3u);
    EXPECT_EQ(c.count(1), 1u);
    EXPECT_EQ(c.count(2), 1u);
}

TEST(CommCounters, Saturates)
{
    CommCounters c;
    for (int i = 0; i < 300; ++i)
        c.record(CoreSet{0});
    EXPECT_EQ(c.count(0), CommCounters::saturation);
}

TEST(CommCounters, Reset)
{
    CommCounters c;
    c.record(CoreSet{1});
    c.reset();
    EXPECT_EQ(c.total(), 0u);
}

TEST(CommCountersDeathTest, RecordPastTheBankDies)
{
    CommCounters c(16);
    c.record(CoreSet{15});
    EXPECT_DEATH(c.record(CoreSet{16}), "core 16 recorded into a 16-core");
}

// --- SpTable ---

TEST(SpTable, MissingEntry)
{
    SpTable t(16, 2);
    EXPECT_EQ(t.entry(0, 42), nullptr);
}

TEST(SpTable, StoreAndRetrieve)
{
    SpTable t(16, 2);
    t.storeSignature(0, 42, CoreSet{1, 2});
    const SpEntry *e = t.entry(0, 42);
    ASSERT_NE(e, nullptr);
    ASSERT_EQ(e->sigs.size(), 1u);
    EXPECT_EQ(e->sigs[0], (CoreSet{1, 2}));
}

TEST(SpTable, DepthBound)
{
    SpTable t(16, 2);
    t.storeSignature(0, 42, CoreSet{1});
    t.storeSignature(0, 42, CoreSet{2});
    t.storeSignature(0, 42, CoreSet{3});
    const SpEntry *e = t.entry(0, 42);
    ASSERT_EQ(e->sigs.size(), 2u);
    EXPECT_EQ(e->sigs[0], CoreSet{3}); // Newest first.
    EXPECT_EQ(e->sigs[1], CoreSet{2});
}

TEST(SpTable, StrideDetectionStable)
{
    SpTable t(16, 2);
    t.storeSignature(0, 1, CoreSet{4});
    t.storeSignature(0, 1, CoreSet{4});
    EXPECT_EQ(t.entry(0, 1)->stride, 1u);
}

TEST(SpTable, StrideDetectionAlternating)
{
    SpTable t(16, 2);
    t.storeSignature(0, 1, CoreSet{4});
    t.storeSignature(0, 1, CoreSet{8});
    t.storeSignature(0, 1, CoreSet{4}); // Matches depth 2.
    EXPECT_EQ(t.entry(0, 1)->stride, 2u);
}

TEST(SpTable, StrideResetOnChange)
{
    SpTable t(16, 2);
    t.storeSignature(0, 1, CoreSet{4});
    t.storeSignature(0, 1, CoreSet{4});
    t.storeSignature(0, 1, CoreSet{9});
    EXPECT_EQ(t.entry(0, 1)->stride, 0u);
}

TEST(SpTable, PerCoreSlices)
{
    SpTable t(16, 2);
    t.storeSignature(0, 42, CoreSet{1});
    EXPECT_EQ(t.entry(1, 42), nullptr); // Other core's slice empty.
}

TEST(SpTable, LockHolders)
{
    SpTable t(16, 2);
    EXPECT_TRUE(t.lockHolders(0xbeef).empty());
    t.storeLockHolder(0xbeef, 3);
    t.storeLockHolder(0xbeef, 7);
    EXPECT_EQ(t.lockHolders(0xbeef), (CoreSet{3, 7}));
    t.storeLockHolder(0xbeef, 9); // Depth 2: 3 falls out.
    EXPECT_EQ(t.lockHolders(0xbeef), (CoreSet{7, 9}));
}

TEST(SpTable, StorageBitsGrow)
{
    SpTable t(16, 2);
    const std::size_t empty = t.storageBits(16);
    t.storeSignature(0, 1, CoreSet{1});
    t.storeLockHolder(0x10, 2);
    EXPECT_GT(t.storageBits(16), empty);
    EXPECT_EQ(t.entryCount(), 2u);
}

TEST(SpTable, AccessCounting)
{
    SpTable t(16, 2);
    const auto before = t.accesses();
    t.storeSignature(0, 1, CoreSet{1});
    t.entry(0, 1);
    EXPECT_EQ(t.accesses(), before + 2);
}
