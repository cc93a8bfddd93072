/**
 * @file
 * Global-value-queue tests: delay-shifted windows (paper §3.1) and
 * the hybrid GVQ's slot/commit semantics (paper §5).
 */

#include <gtest/gtest.h>

#include "core/gvq.hh"

namespace gdiff {
namespace core {
namespace {

TEST(Gvq, WindowIsMostRecentFirst)
{
    GlobalValueQueue q(4);
    q.push(10);
    q.push(20);
    q.push(30);
    ValueWindow w;
    q.visibleWindow(w);
    ASSERT_EQ(w.count, 3u);
    EXPECT_EQ(w.values[0], 30);
    EXPECT_EQ(w.values[1], 20);
    EXPECT_EQ(w.values[2], 10);
}

TEST(Gvq, WindowCapsAtOrder)
{
    GlobalValueQueue q(2);
    for (int i = 1; i <= 5; ++i)
        q.push(i);
    ValueWindow w;
    q.visibleWindow(w);
    ASSERT_EQ(w.count, 2u);
    EXPECT_EQ(w.values[0], 5);
    EXPECT_EQ(w.values[1], 4);
}

TEST(Gvq, DelayHidesNewestValues)
{
    // order 3, delay 2: the window shows ages 3,4,5.
    GlobalValueQueue q(3, 2);
    for (int i = 1; i <= 6; ++i)
        q.push(i);
    ValueWindow w;
    q.visibleWindow(w);
    ASSERT_EQ(w.count, 3u);
    EXPECT_EQ(w.values[0], 4); // age 3
    EXPECT_EQ(w.values[1], 3);
    EXPECT_EQ(w.values[2], 2);
}

TEST(Gvq, DelayedWindowEmptyUntilEnoughHistory)
{
    GlobalValueQueue q(3, 2);
    q.push(1);
    q.push(2);
    ValueWindow w;
    q.visibleWindow(w);
    EXPECT_EQ(w.count, 0u);
    q.push(3);
    q.visibleWindow(w);
    ASSERT_EQ(w.count, 1u);
    EXPECT_EQ(w.values[0], 1);
}

TEST(Gvq, ClearForgets)
{
    GlobalValueQueue q(2);
    q.push(1);
    q.clear();
    ValueWindow w;
    q.visibleWindow(w);
    EXPECT_EQ(w.count, 0u);
}

TEST(GvqDeath, OrderOutOfRange)
{
    EXPECT_DEATH(GlobalValueQueue q(0), "order");
    EXPECT_DEATH(GlobalValueQueue q(maxOrder + 1), "order");
}

// --------------------------------------------------------------- HGVQ

TEST(HybridGvq, SlotIdsAreSequential)
{
    HybridGvq h(4, 16);
    EXPECT_EQ(h.pushSpeculative(100), 0u);
    EXPECT_EQ(h.pushSpeculative(200), 1u);
    EXPECT_EQ(h.pushSpeculative(300), 2u);
}

TEST(HybridGvq, DispatchWindowSeesSpeculativeValues)
{
    HybridGvq h(4, 16);
    h.pushSpeculative(100);
    h.pushSpeculative(200);
    ValueWindow w;
    h.windowAtDispatch(w);
    ASSERT_EQ(w.count, 2u);
    EXPECT_EQ(w.values[0], 200);
    EXPECT_EQ(w.values[1], 100);
}

TEST(HybridGvq, CommitOverwritesSlot)
{
    HybridGvq h(4, 16);
    uint64_t s0 = h.pushSpeculative(100);
    h.pushSpeculative(200);
    h.commitSlot(s0, 111); // real value arrives at writeback
    ValueWindow w;
    h.windowAtDispatch(w);
    EXPECT_EQ(w.values[1], 111);
    EXPECT_EQ(w.values[0], 200); // untouched speculative slot
}

TEST(HybridGvq, WindowBeforeSlotAnchorsInDispatchOrder)
{
    HybridGvq h(2, 16);
    h.pushSpeculative(10); // slot 0
    h.pushSpeculative(20); // slot 1
    uint64_t s2 = h.pushSpeculative(30); // slot 2
    h.pushSpeculative(40); // slot 3 (dispatched later)

    // The training window of slot 2 must see slots 1 and 0 — never
    // slot 3, which dispatched after it.
    ValueWindow w;
    h.windowBeforeSlot(s2, w);
    ASSERT_EQ(w.count, 2u);
    EXPECT_EQ(w.values[0], 20);
    EXPECT_EQ(w.values[1], 10);
}

TEST(HybridGvq, WindowBeforeSlotSeesCommittedValues)
{
    HybridGvq h(2, 16);
    uint64_t s0 = h.pushSpeculative(10);
    uint64_t s1 = h.pushSpeculative(20);
    h.commitSlot(s0, 11); // slot 0's real result arrives first
    ValueWindow w;
    h.windowBeforeSlot(s1, w);
    ASSERT_EQ(w.count, 1u);
    EXPECT_EQ(w.values[0], 11);
}

TEST(HybridGvq, EvictedSlotsDropFromWindows)
{
    HybridGvq h(4, 4); // tiny ring
    for (int i = 0; i < 8; ++i)
        h.pushSpeculative(i * 10);
    // Slots 0..3 have been evicted; a window anchored at slot 5 can
    // only reach slots 4 (value 40): slots 3,2 are gone.
    ValueWindow w;
    h.windowBeforeSlot(5, w);
    ASSERT_EQ(w.count, 1u);
    EXPECT_EQ(w.values[0], 40);
}

TEST(HybridGvq, CommitOfEvictedSlotIsSilentlyDropped)
{
    HybridGvq h(2, 2);
    uint64_t s0 = h.pushSpeculative(1);
    h.pushSpeculative(2);
    h.pushSpeculative(3); // evicts slot 0
    h.commitSlot(s0, 99); // must not crash or corrupt
    ValueWindow w;
    h.windowAtDispatch(w);
    EXPECT_EQ(w.values[0], 3);
    EXPECT_EQ(w.values[1], 2);
}

TEST(HybridGvqDeath, CommitOfFutureSlot)
{
    HybridGvq h(2, 8);
    h.pushSpeculative(1);
    EXPECT_DEATH(h.commitSlot(5, 1), "future");
}

} // namespace
} // namespace core
} // namespace gdiff
