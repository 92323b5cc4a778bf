/**
 * @file
 * Unit tests for the per-line transaction lock table.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/line_lock.hh"

using namespace spp;

TEST(LineLock, AcquireFree)
{
    LineLockTable t;
    EXPECT_FALSE(t.isLocked(0x100));
    EXPECT_TRUE(t.acquireOrQueue(0x100, {1, 10}, [] {}));
    EXPECT_TRUE(t.isLocked(0x100));
    EXPECT_EQ(t.lockedLines(), 1u);
}

TEST(LineLock, ReacquireBySameKey)
{
    LineLockTable t;
    EXPECT_TRUE(t.acquireOrQueue(0x100, {1, 10}, [] {}));
    EXPECT_TRUE(t.acquireOrQueue(0x100, {1, 10}, [] {}));
    EXPECT_TRUE(t.tryAcquire(0x100, {1, 10}));
}

TEST(LineLock, QueueAndHandoff)
{
    LineLockTable t;
    bool resumed = false;
    EXPECT_TRUE(t.acquireOrQueue(0x100, {1, 10}, [] {}));
    EXPECT_FALSE(
        t.acquireOrQueue(0x100, {2, 20}, [&] { resumed = true; }));
    EXPECT_FALSE(resumed);
    t.release(0x100, {1, 10});
    EXPECT_TRUE(resumed); // Handoff runs synchronously.
    EXPECT_TRUE(t.isLocked(0x100));
    EXPECT_TRUE(t.tryAcquire(0x100, {2, 20})); // Now held by 2/20.
    t.release(0x100, {2, 20});
    EXPECT_FALSE(t.isLocked(0x100));
}

TEST(LineLock, FifoHandoffOrder)
{
    LineLockTable t;
    std::vector<int> order;
    t.acquireOrQueue(0x100, {0, 1}, [] {});
    t.acquireOrQueue(0x100, {1, 2}, [&] { order.push_back(1); });
    t.acquireOrQueue(0x100, {2, 3}, [&] { order.push_back(2); });
    t.release(0x100, {0, 1});
    t.release(0x100, {1, 2});
    t.release(0x100, {2, 3});
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(LineLock, TryAcquireBusy)
{
    LineLockTable t;
    t.acquireOrQueue(0x100, {1, 10}, [] {});
    EXPECT_FALSE(t.tryAcquire(0x100, {2, 20}));
    EXPECT_TRUE(t.isLockedByOther(0x100, TxnKey{2, 20}));
    EXPECT_FALSE(t.isLockedByOther(0x100, TxnKey{1, 10}));
}

TEST(LineLock, IndependentLines)
{
    LineLockTable t;
    EXPECT_TRUE(t.acquireOrQueue(0x100, {1, 10}, [] {}));
    EXPECT_TRUE(t.acquireOrQueue(0x200, {2, 20}, [] {}));
    EXPECT_EQ(t.lockedLines(), 2u);
}

TEST(LineLock, ReleaseUnheldPanics)
{
    LineLockTable t;
    EXPECT_DEATH({ t.release(0x100, {1, 10}); }, "release");
    t.acquireOrQueue(0x100, {1, 10}, [] {});
    EXPECT_DEATH({ t.release(0x100, {2, 20}); }, "release");
}

// The state hash folds the holder and the waiters still queued, in
// FIFO order, whatever hand-offs the queue has seen: consumed entries
// fold in neither before the queue erases them nor after.
TEST(LineLock, HashFoldsOnlyQueuedWaiters)
{
    const auto hash = [](const LineLockTable &t) {
        StateHasher h;
        t.hashInto(h);
        return h.value();
    };
    const auto table = [](const std::vector<CoreId> &keys) {
        LineLockTable t;
        for (CoreId c : keys)
            t.acquireOrQueue(0x100, {c, c}, [] {});
        return t;
    };
    LineLockTable worn = table({0, 1, 2, 3, 4, 5, 6});
    worn.release(0x100, {0, 0});
    worn.release(0x100, {1, 1});
    // Two of six entries consumed: still in the vector.
    EXPECT_EQ(hash(worn), hash(table({2, 3, 4, 5, 6})));
    worn.release(0x100, {2, 2});
    // Three of six consumed: erased.
    EXPECT_EQ(hash(worn), hash(table({3, 4, 5, 6})));
    EXPECT_NE(hash(worn), hash(table({3, 5, 4, 6})));
}
