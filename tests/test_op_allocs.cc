/**
 * @file
 * Allocation tests: a thread's ops, and the misses they cause, must
 * not allocate; a cache array holds only the ways it fills, a limited
 * home directory only its pointers, the event queue only about the
 * events pending at once and a home lock's wait queue only about its
 * waiters.
 *
 * Global operator new is replaced by a version that counts calls and
 * sums the bytes requested. Two runs differ only in how many
 * iterations of a loop each core performs, so every allocation that
 * scales with the op count shows up as the difference between them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "coherence/home_directory.hh"
#include "coherence/line_lock.hh"
#include "event/event_queue.hh"
#include "mem/cache_array.hh"
#include "sim/cmp_system.hh"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

} // namespace

void *
operator new(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

// Not inlined: GCC 12 inlines the counting operator new less readily
// than these, and where it inlines only a delete (gtest's `new
// TestClass`) it warns that free() gets an operator new pointer.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace spp;

namespace {

/** Each core rereads its first private line (an L1 hit after the
 * first miss) and computes, @p iterations times. */
Task
readLoop(ThreadContext &ctx, unsigned iterations)
{
    for (unsigned i = 0; i < iterations; ++i) {
        co_await ctx.read(ctx.priv(0), 0x100);
        co_await ctx.compute(4);
    }
}

/** The 16 cores write 8 shared lines in turn: at iteration i core c
 * writes line (c + i) % 8, so consecutive writes to a line come from
 * different cores and nearly every write misses. */
Task
writeLoop(ThreadContext &ctx, unsigned iterations)
{
    for (unsigned i = 0; i < iterations; ++i) {
        co_await ctx.write(ctx.shared((ctx.self() + i) % 8), 0x200);
        co_await ctx.compute(4);
    }
}

using Loop = Task (*)(ThreadContext &, unsigned);

/** Allocations made inside CmpSystem::run of @p loop. */
std::uint64_t
allocationsDuringRun(Loop loop, unsigned iterations,
                     Protocol protocol = Protocol::directory,
                     PredictorKind predictor = PredictorKind::none)
{
    Config cfg;
    cfg.l2Bytes = 64 * 1024;
    cfg.l1Bytes = 4 * 1024;
    cfg.protocol = protocol;
    cfg.predictor = predictor;
    CmpSystem sys(cfg);
    CmpSystem::ThreadFn program = [loop, iterations](ThreadContext &ctx) {
        return loop(ctx, iterations);
    };
    const std::uint64_t before = g_allocations.load();
    sys.run(program);
    return g_allocations.load() - before;
}

} // namespace

TEST(OpAllocations, SteadyStateAccessesDoNotAllocate)
{
    const std::uint64_t shorter = allocationsDuringRun(readLoop, 1100);
    const std::uint64_t longer = allocationsDuringRun(readLoop, 2100);
    // 16 cores x 1,000 extra iterations: 16,000 more reads and compute
    // bursts. Allow 1% of the reads.
    EXPECT_LT(longer, shorter + 160)
        << "1,100 iterations: " << shorter
        << " allocations; 2,100 iterations: " << longer;
}

TEST(OpAllocations, SteadyStateMissesDoNotAllocate)
{
    const std::pair<Protocol, PredictorKind> engines[] = {
        {Protocol::directory, PredictorKind::none},
        {Protocol::predicted, PredictorKind::sp},
        {Protocol::broadcast, PredictorKind::none},
        {Protocol::multicast, PredictorKind::sp},
    };
    for (const auto &[protocol, predictor] : engines) {
        const std::uint64_t shorter =
            allocationsDuringRun(writeLoop, 1100, protocol, predictor);
        const std::uint64_t longer =
            allocationsDuringRun(writeLoop, 2100, protocol, predictor);
        // 16,000 more write misses. Allow one allocation per 1,000.
        EXPECT_LT(longer, shorter + 16)
            << toString(protocol) << "-" << toString(predictor)
            << ": 1,100 iterations: " << shorter
            << " allocations; 2,100 iterations: " << longer;
    }
}

TEST(OpAllocations, CacheSetsHoldOnlyTheWaysTheyFill)
{
    // The paper's L2: 1 MB, 8-way, 64 B lines -> 2,048 sets. One line
    // in every set must cost about one way, not the set's eight.
    const std::uint64_t before = g_bytes.load();
    CacheArray l2(1 << 20, 8, 64);
    CacheLine victim;
    for (Addr set = 0; set < 2048; ++set)
        l2.allocate(set * 64, victim)->state = Mesif::shared;
    const std::uint64_t bytes = g_bytes.load() - before;
    EXPECT_LT(bytes, 2 * 2048 * sizeof(CacheLine) + 32 * 1024)
        << "2,048 lines in 2,048 sets allocated " << bytes << " B";
}

TEST(OpAllocations, LimitedDirectoryHoldsPointers)
{
    // A 256-core limited entry (P = 4) keeps four 16-bit pointers, not
    // a 256-bit vector: 100,000 lines grow the table to 262,144 slots,
    // and its doublings request about 12 MiB at 24 B a slot (24 MiB
    // at 48).
    Config cfg;
    cfg.numCores = 256;
    cfg.sharerFormat = SharerFormat::limited;
    const std::uint64_t before = g_bytes.load();
    {
        HomeDirectory dir(cfg);
        for (unsigned i = 0; i < 100000; ++i)
            dir.readFromMemory(dir.at(Addr{i} * 64),
                               static_cast<CoreId>(i % 256));
    }
    const std::uint64_t bytes = g_bytes.load() - before;
    EXPECT_LT(bytes, 16u << 20)
        << "100,000 limited entries at 256 cores allocated " << bytes
        << " B";
}

TEST(OpAllocations, EventQueueHoldsOnlyPendingEvents)
{
    // Sixteen self-rescheduling chains, each hopping 1..1,000 ticks
    // ahead: at most 16 events are ever pending, spread over the
    // whole near window. The queue may hold nodes for those, not
    // storage for every slot the chains pass through.
    struct Chain
    {
        EventQueue *eq = nullptr;
        std::uint64_t state = 0;
        unsigned left = 0;

        void
        hop()
        {
            if (left-- == 0)
                return;
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            eq->scheduleAfter(1 + (state >> 33) % 1000,
                              [this] { hop(); });
        }
    };
    const std::uint64_t before = g_bytes.load();
    std::uint64_t executed = 0;
    {
        EventQueue eq;
        Chain chains[16];
        for (unsigned i = 0; i < 16; ++i) {
            chains[i] = Chain{&eq, i, 200000 / 16};
            chains[i].hop();
        }
        eq.run();
        executed = eq.executed();
    }
    const std::uint64_t bytes = g_bytes.load() - before;
    EXPECT_EQ(executed, 200000u);
    EXPECT_LT(bytes, 16 * 1024)
        << "200,000 events, 16 pending at once, allocated " << bytes
        << " B";
}

TEST(OpAllocations, LockQueueHoldsOnlyItsWaiters)
{
    // One line under contention that never drains: 15 waiters stay
    // queued while the lock changes hands 100,000 times, each holder
    // queueing again as it releases. Hand-offs stay FIFO.
    const std::uint64_t before = g_bytes.load();
    {
        LineLockTable locks;
        constexpr Addr line = 0x40;
        TxnKey holder{0, 0};
        const auto queue = [&](TxnKey key) {
            EXPECT_FALSE(locks.acquireOrQueue(
                line, key, [&holder, key] { holder = key; }));
        };
        ASSERT_TRUE(locks.tryAcquire(line, holder));
        for (CoreId c = 1; c < 16; ++c)
            queue(TxnKey{c, c});
        for (std::uint64_t i = 0; i < 100000; ++i) {
            const TxnKey old = holder;
            locks.release(line, old);
            ASSERT_EQ(holder.requester, (old.requester + 1) % 16);
            queue(TxnKey{old.requester, 16 + i});
        }
    }
    const std::uint64_t bytes = g_bytes.load() - before;
    EXPECT_LT(bytes, 16 * 1024)
        << "100,000 hand-offs among 16 transactions allocated " << bytes
        << " B";
}
