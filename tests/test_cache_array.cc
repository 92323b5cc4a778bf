/**
 * @file
 * Unit tests for the set-associative cache array and address map.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hh"
#include "mem/address_map.hh"
#include "mem/cache_array.hh"

using namespace spp;

TEST(CacheArray, MissOnEmpty)
{
    CacheArray c(4096, 2, 64);
    EXPECT_EQ(c.lookup(0x1000), nullptr);
    EXPECT_EQ(c.stats().misses.value(), 1u);
}

TEST(CacheArray, AllocateThenHit)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    CacheLine *l = c.allocate(0x1000, victim);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(victim.state, Mesif::invalid);
    l->state = Mesif::exclusive;
    CacheLine *hit = c.lookup(0x1000);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->tag, 0x1000u);
    EXPECT_EQ(c.stats().hits.value(), 1u);
}

TEST(CacheArray, LruEviction)
{
    // 2 ways, 64B lines, 2 sets -> set stride 128.
    CacheArray c(256, 2, 64);
    CacheLine victim;
    auto fill = [&](Addr a) {
        CacheLine *l = c.allocate(a, victim);
        l->state = Mesif::shared;
    };
    fill(0x0000);
    fill(0x0080); // Same set as 0x0000.
    // Touch 0x0000 so 0x0080 becomes LRU.
    EXPECT_NE(c.lookup(0x0000), nullptr);
    fill(0x0100); // Same set again: must evict 0x0080.
    EXPECT_EQ(victim.tag, 0x0080u);
    EXPECT_EQ(victim.state, Mesif::shared);
    EXPECT_NE(c.peek(0x0000), nullptr);
    EXPECT_EQ(c.peek(0x0080), nullptr);
}

TEST(CacheArray, DirtyEvictionCounted)
{
    CacheArray c(128, 1, 64); // 2 sets, direct mapped.
    CacheLine victim;
    CacheLine *l = c.allocate(0x0000, victim);
    l->state = Mesif::modified;
    c.allocate(0x0080, victim); // Evicts the dirty line.
    EXPECT_EQ(victim.state, Mesif::modified);
    EXPECT_EQ(c.stats().dirtyEvictions.value(), 1u);
}

TEST(CacheArray, Invalidate)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    c.allocate(0x40, victim)->state = Mesif::forwarding;
    EXPECT_EQ(c.invalidate(0x40), Mesif::forwarding);
    EXPECT_EQ(c.peek(0x40), nullptr);
    EXPECT_EQ(c.invalidate(0x40), Mesif::invalid); // Already gone.
}

TEST(CacheArray, ValidCount)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    EXPECT_EQ(c.validCount(), 0u);
    c.allocate(0x40, victim)->state = Mesif::shared;
    c.allocate(0x80, victim)->state = Mesif::modified;
    EXPECT_EQ(c.validCount(), 2u);
}

TEST(CacheArray, PeekDoesNotTouchLru)
{
    CacheArray c(128, 2, 64); // One set, two ways.
    CacheLine victim;
    c.allocate(0x000, victim)->state = Mesif::shared;
    c.allocate(0x040, victim)->state = Mesif::shared;
    // Peek 0x000 (no LRU update) then allocate: 0x000 is still LRU.
    c.peek(0x000);
    c.allocate(0x080, victim);
    EXPECT_EQ(victim.tag, 0x000u);
}

TEST(CacheArray, ForEachValid)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    c.allocate(0x40, victim)->state = Mesif::shared;
    c.allocate(0x80, victim)->state = Mesif::exclusive;
    unsigned n = 0;
    c.forEachValid([&](const CacheLine &) { ++n; });
    EXPECT_EQ(n, 2u);
}

TEST(CacheArray, UntouchedSetMisses)
{
    CacheArray c(4096, 2, 64);
    CacheLine victim;
    c.allocate(0x40, victim)->state = Mesif::shared; // Set 1 only.
    EXPECT_EQ(c.lookup(0x80), nullptr);              // Set 2: never.
    EXPECT_EQ(c.stats().lookups.value(), 1u);
    EXPECT_EQ(c.stats().misses.value(), 1u);
    EXPECT_EQ(c.peek(0x80), nullptr);
    EXPECT_EQ(c.find(0x80), nullptr);
    EXPECT_EQ(c.invalidate(0x80), Mesif::invalid);
    EXPECT_EQ(c.validCount(), 1u);
    EXPECT_EQ(c.stats().lookups.value(), 1u); // Peeks count nothing.
}

TEST(CacheArray, LinesStayPutAsSetsAreAllocated)
{
    // The paper's L2: 1 MB, 8-way, 64 B lines -> 2048 sets.
    CacheArray c(1 << 20, 8, 64);
    CacheLine victim;
    CacheLine *first = c.allocate(0x0, victim);
    first->state = Mesif::modified;
    first->version = 42;
    first->lastPc = 0x1234;
    for (Addr set = 1; set < 2048; ++set)
        c.allocate(set * 64, victim)->state = Mesif::shared;
    EXPECT_EQ(c.validCount(), 2048u);
    const CacheLine *again = c.peek(0x0);
    ASSERT_EQ(again, first);
    EXPECT_EQ(again->tag, 0x0u);
    EXPECT_EQ(again->state, Mesif::modified);
    EXPECT_EQ(again->version, 42u);
    EXPECT_EQ(again->lastPc, 0x1234u);
}

TEST(CacheArray, NonPowerOfTwoSetCount)
{
    // 384 B, 2-way, 64 B lines -> 3 sets: lines 0, 3 and 6 share
    // set 0 (line number % 3).
    CacheArray c(384, 2, 64);
    CacheLine victim;
    c.allocate(0 * 64, victim)->state = Mesif::shared;
    c.allocate(3 * 64, victim)->state = Mesif::shared;
    c.allocate(1 * 64, victim)->state = Mesif::shared; // Set 1.
    EXPECT_NE(c.lookup(0 * 64), nullptr); // Line 3 becomes LRU.
    c.allocate(6 * 64, victim);
    EXPECT_EQ(victim.tag, 3u * 64);
    EXPECT_EQ(victim.state, Mesif::shared);
    EXPECT_NE(c.peek(0 * 64), nullptr);
    EXPECT_NE(c.peek(1 * 64), nullptr);
    EXPECT_EQ(c.stats().evictions.value(), 1u);
}

TEST(CacheArray, ForEachValidVisitsSetsInOrder)
{
    CacheArray c(4096, 2, 64); // 32 sets.
    CacheLine victim;
    c.allocate(5 * 64, victim)->state = Mesif::shared;  // Set 5 first,
    c.allocate(1 * 64, victim)->state = Mesif::shared;  // then set 1,
    c.allocate(37 * 64, victim)->state = Mesif::shared; // then set 5.
    std::vector<Addr> order;
    c.forEachValid([&](const CacheLine &l) { order.push_back(l.tag); });
    EXPECT_EQ(order, (std::vector<Addr>{1 * 64, 5 * 64, 37 * 64}));
}

TEST(CacheArray, DeathOnWrappingGeometry)
{
    // 64 * 2^26 is 2^32: a 32-bit product wraps to 0 (SIGFPE).
    EXPECT_DEATH({ CacheArray c(16 * 1024, 67108864, 64); }, "sets");
}

// --- Address map ---

TEST(AddressMap, LineAndMacroBlock)
{
    Config cfg; // 64B lines, 256B macroblocks, 16 cores.
    AddressMap map(cfg);
    EXPECT_EQ(map.lineAddr(0x1234), 0x1200u);
    EXPECT_EQ(map.lineNum(0x1234), 0x48u);
    EXPECT_EQ(map.macroBlock(0x1234), 0x12u);
    EXPECT_EQ(map.lineShift(), 6u);
}

TEST(AddressMap, HomeNodeInterleaving)
{
    Config cfg;
    AddressMap map(cfg);
    EXPECT_EQ(map.homeNode(0x0000), 0u);
    EXPECT_EQ(map.homeNode(0x0040), 1u);
    EXPECT_EQ(map.homeNode(0x0400), 0u); // 16 lines later wraps.
    for (Addr a = 0; a < 0x10000; a += 64)
        EXPECT_LT(map.homeNode(a), cfg.numCores);
}

TEST(Mesif, Helpers)
{
    EXPECT_TRUE(canForward(Mesif::modified));
    EXPECT_TRUE(canForward(Mesif::exclusive));
    EXPECT_TRUE(canForward(Mesif::forwarding));
    EXPECT_FALSE(canForward(Mesif::shared));
    EXPECT_FALSE(canForward(Mesif::invalid));
    EXPECT_TRUE(isWritable(Mesif::modified));
    EXPECT_TRUE(isWritable(Mesif::exclusive));
    EXPECT_FALSE(isWritable(Mesif::shared));
    EXPECT_TRUE(isDirty(Mesif::modified));
    EXPECT_FALSE(isDirty(Mesif::exclusive));
    EXPECT_STREQ(toString(Mesif::forwarding), "F");
}
