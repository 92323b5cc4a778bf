/**
 * @file
 * Steady-state allocation tests: a thread's ops, and the misses they
 * cause, must not allocate.
 *
 * Global operator new is replaced by a counting version. Two runs
 * differ only in how many iterations of a loop each core performs,
 * so every allocation that scales with the op count shows up as the
 * difference between them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "sim/cmp_system.hh"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
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
        // 16,000 more write misses. Allow one allocation per 20: the
        // event queue's slot vectors still grow within a run.
        EXPECT_LT(longer, shorter + 800)
            << toString(protocol) << "-" << toString(predictor)
            << ": 1,100 iterations: " << shorter
            << " allocations; 2,100 iterations: " << longer;
    }
}
