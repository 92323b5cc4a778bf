/**
 * @file
 * Steady-state allocation test: a thread's ops must not allocate.
 *
 * Global operator new is replaced by a counting version. Two runs
 * differ only in how many read + compute iterations each core
 * performs, so every allocation that scales with the op count shows
 * up as the difference between them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

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

/** Allocations made inside CmpSystem::run of readLoop. */
std::uint64_t
allocationsDuringRun(unsigned iterations)
{
    Config cfg;
    cfg.l2Bytes = 64 * 1024;
    cfg.l1Bytes = 4 * 1024;
    CmpSystem sys(cfg);
    CmpSystem::ThreadFn program = [iterations](ThreadContext &ctx) {
        return readLoop(ctx, iterations);
    };
    const std::uint64_t before = g_allocations.load();
    sys.run(program);
    return g_allocations.load() - before;
}

} // namespace

TEST(OpAllocations, SteadyStateAccessesDoNotAllocate)
{
    const std::uint64_t shorter = allocationsDuringRun(1100);
    const std::uint64_t longer = allocationsDuringRun(2100);
    // 16 cores x 1,000 extra iterations: 16,000 more reads and compute
    // bursts. Allow 1% of the reads.
    EXPECT_LT(longer, shorter + 160)
        << "1,100 iterations: " << shorter
        << " allocations; 2,100 iterations: " << longer;
}
