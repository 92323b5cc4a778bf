/**
 * @file
 * Unit tests for the set-associative cache array and address map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
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
    // The paper's L2: 1 MB, 8-way, 64 B lines -> 2048 sets. Set 0's
    // eight ways are filled one at a time, 2048 lines apart.
    CacheArray c(1 << 20, 8, 64);
    CacheLine victim;
    CacheLine *ways[8];
    for (unsigned w = 0; w < 8; ++w) {
        ways[w] = c.allocate(Addr{w} * 2048 * 64, victim);
        ways[w]->state = Mesif::modified;
        ways[w]->version = 42 + w;
        ways[w]->lastPc = 0x1234 + w;
    }
    for (Addr set = 1; set < 2048; ++set)
        c.allocate(set * 64, victim)->state = Mesif::shared;
    EXPECT_EQ(c.validCount(), 2047u + 8);
    for (unsigned w = 0; w < 8; ++w) {
        const CacheLine *again = c.peek(Addr{w} * 2048 * 64);
        ASSERT_EQ(again, ways[w]) << "way " << w;
        EXPECT_EQ(again->tag, Addr{w} * 2048 * 64);
        EXPECT_EQ(again->state, Mesif::modified);
        EXPECT_EQ(again->version, 42u + w);
        EXPECT_EQ(again->lastPc, 0x1234u + w);
    }
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

namespace {

/**
 * The dense array, kept as CacheArray's reference: every set holds
 * all assoc ways from the start, and allocate takes the first invalid
 * way, else the least lru.
 */
struct DenseCache
{
    DenseCache(unsigned size_bytes, unsigned assoc, unsigned line_bytes)
        : assoc(assoc), lineBytes(line_bytes), ways(size_bytes / line_bytes)
    {
    }

    CacheLine *
    set(Addr line_addr)
    {
        return &ways[line_addr / lineBytes % (ways.size() / assoc) * assoc];
    }

    CacheLine *
    find(Addr line_addr)
    {
        CacheLine *s = set(line_addr);
        for (unsigned w = 0; w < assoc; ++w)
            if (isValid(s[w].state) && s[w].tag == line_addr)
                return &s[w];
        return nullptr;
    }

    CacheLine *
    lookup(Addr line_addr)
    {
        ++counters[0];
        CacheLine *line = find(line_addr);
        ++counters[line ? 1 : 2]; // Hits, misses.
        if (line)
            line->lru = nextLru++;
        return line;
    }

    CacheLine *
    allocate(Addr line_addr, CacheLine &victim)
    {
        victim = CacheLine{};
        CacheLine *s = set(line_addr);
        CacheLine *target = nullptr;
        for (unsigned w = 0; w < assoc; ++w) {
            if (!isValid(s[w].state)) {
                target = &s[w];
                break;
            }
            if (!target || s[w].lru < target->lru)
                target = &s[w];
        }
        if (isValid(target->state)) {
            victim = *target;
            ++counters[3];                         // Evictions.
            counters[4] += isDirty(target->state); // Dirty ones.
        }
        target->tag = line_addr;
        target->state = Mesif::invalid;
        target->lru = nextLru++;
        return target;
    }

    Mesif
    invalidate(Addr line_addr)
    {
        CacheLine *line = find(line_addr);
        if (!line)
            return Mesif::invalid;
        return std::exchange(line->state, Mesif::invalid);
    }

    unsigned assoc;
    unsigned lineBytes;
    std::vector<CacheLine> ways; ///< Set s holds ways[s * assoc...].
    std::uint64_t nextLru = 1;
    /** Lookups, hits, misses, evictions, dirty evictions. */
    std::vector<std::uint64_t> counters = std::vector<std::uint64_t>(5);
};

/** What a caller sees of @p l (not the array's link); {} for none. */
std::vector<std::uint64_t>
fields(const CacheLine *l)
{
    if (!l)
        return {};
    return {l->tag, static_cast<std::uint64_t>(l->state), l->lru, l->lastPc,
            l->version};
}

std::vector<std::uint64_t>
counters(const CacheStats &s)
{
    return {s.lookups.value(), s.hits.value(), s.misses.value(),
            s.evictions.value(), s.dirtyEvictions.value()};
}

/** The fields of every valid line, in forEachValid order. */
std::vector<std::uint64_t>
contents(const CacheArray &c)
{
    std::vector<std::uint64_t> out;
    c.forEachValid([&](const CacheLine &l) {
        const auto f = fields(&l);
        out.insert(out.end(), f.begin(), f.end());
    });
    return out;
}

std::vector<std::uint64_t>
contents(const DenseCache &d)
{
    std::vector<std::uint64_t> out;
    for (const CacheLine &l : d.ways) {
        if (isValid(l.state)) {
            const auto f = fields(&l);
            out.insert(out.end(), f.begin(), f.end());
        }
    }
    return out;
}

/**
 * Drive a CacheArray and the dense reference with the same seeded
 * random lookups, peeks, allocations and invalidations, over a pool
 * of lines three times the capacity, and compare after every one.
 */
void
expectMatchesDense(unsigned size_bytes, unsigned assoc,
                   unsigned line_bytes, std::uint64_t seed)
{
    CacheArray sparse(size_bytes, assoc, line_bytes);
    DenseCache dense(size_bytes, assoc, line_bytes);
    Rng rng(seed);
    const unsigned lines = size_bytes / line_bytes;
    // Enough to fill and churn the largest array, not only touch it.
    const unsigned ops = std::max(10'000u, 12 * lines);
    constexpr Mesif valid[] = {Mesif::shared, Mesif::forwarding,
                               Mesif::exclusive, Mesif::modified};
    for (unsigned op = 1; op <= ops; ++op) {
        const Addr addr = rng.below(3 * lines) * line_bytes;
        switch (rng.below(4)) {
          case 0: { // A hit may change the line's state.
            CacheLine *got = sparse.lookup(addr);
            CacheLine *want = dense.lookup(addr);
            ASSERT_EQ(fields(got), fields(want)) << "lookup, op " << op;
            if (want)
                got->state = want->state = valid[rng.below(4)];
            break;
          }
          case 1:
            ASSERT_EQ(fields(sparse.peek(addr)), fields(dense.find(addr)))
                << "peek, op " << op;
            break;
          case 2: {
            if (dense.find(addr))
                break;
            CacheLine got_victim, want_victim;
            CacheLine *got = sparse.allocate(addr, got_victim);
            CacheLine *want = dense.allocate(addr, want_victim);
            ASSERT_EQ(fields(got), fields(want)) << "allocate, op " << op;
            ASSERT_EQ(fields(&got_victim), fields(&want_victim))
                << "victim, op " << op;
            got->state = want->state = valid[rng.below(4)];
            got->version = want->version = rng.next();
            got->lastPc = want->lastPc = rng.next();
            break;
          }
          default:
            ASSERT_EQ(sparse.invalidate(addr), dense.invalidate(addr))
                << "invalidate, op " << op;
        }
        ASSERT_EQ(counters(sparse.stats()), dense.counters) << "op " << op;
        if (op % 1000 == 0) {
            ASSERT_EQ(contents(sparse), contents(dense)) << "op " << op;
        }
    }
    EXPECT_EQ(contents(sparse), contents(dense));
}

} // namespace

TEST(CacheArray, MatchesDenseReference)
{
    // Two direct-mapped sets; three sets (not a power of two); the
    // model checker's L2; the paper's L1; the paper's L2.
    const std::array<unsigned, 3> geometries[] = {
        {128, 1, 64},       {384, 2, 64},   {256, 2, 64},
        {16 * 1024, 1, 64}, {1 << 20, 8, 64},
    };
    std::uint64_t seed = 1;
    for (const auto &[size, assoc, line] : geometries) {
        SCOPED_TRACE(testing::Message() << size << " B, " << assoc
                                        << "-way, seed " << seed);
        expectMatchesDense(size, assoc, line, seed++);
        if (HasFatalFailure())
            return;
    }
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
