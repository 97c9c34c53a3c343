/// Tests for the calendar-queue event kernel: FIFO tie-breaking at scale,
/// cancellation across bucket rollover, window rewinds and resizes, and
/// tombstone accounting (queue_size vs pending_events).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace wlanps::sim {
namespace {

using namespace time_literals;

TEST(CalendarQueueTest, FifoTieOrderingAtTenThousandSimultaneousEvents) {
    // 10k events at the same instant overflow a single wheel bucket many
    // times over; dispatch must still be exact insertion order.
    Simulator sim;
    std::vector<int> order;
    order.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        if (i % 3 == 0) {
            sim.schedule_at(1_ms, [&order, i] { order.push_back(i); });
        } else {
            sim.post_at(1_ms, [&order, i] { order.push_back(i); });
        }
    }
    sim.run();
    ASSERT_EQ(order.size(), 10000u);
    for (int i = 0; i < 10000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(CalendarQueueTest, CancelWhileQueuedAcrossBucketRollover) {
    // Events spread far beyond the wheel window (a fresh wheel covers
    // ~1 ms, and 200 posts are too few to resize it) live in the overflow
    // ladder and migrate into the wheel as the cursor advances.
    // Cancelling every other one while queued must suppress exactly
    // those, wherever each entry happens to reside.
    Simulator sim;
    std::vector<int> fired;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 200; ++i) {
        handles.push_back(
            sim.schedule_at(Time::from_us(i * 137), [&fired, i] { fired.push_back(i); }));
    }
    EXPECT_EQ(sim.queue_size(), 200u);
    EXPECT_EQ(sim.pending_events(), 200u);
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    EXPECT_EQ(sim.queue_size(), 200u);      // tombstones still queued
    EXPECT_EQ(sim.pending_events(), 100u);  // but no longer pending
    sim.run();
    ASSERT_EQ(fired.size(), 100u);
    for (std::size_t i = 0; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
    }
    EXPECT_EQ(sim.queue_size(), 0u);
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_EQ(sim.events_dispatched(), 100u);
}

TEST(CalendarQueueTest, InsertBehindAdvancedCursorRewindsWindow) {
    // run_until() walks the cursor forward to the far-future minimum; a
    // later insert at an earlier time must rewind the window, and both
    // events must then dispatch in time order.
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(100_ms, [&order] { order.push_back(100); });
    sim.run_until(1_ms);  // cursor jumps toward the 100 ms bucket
    EXPECT_EQ(sim.now(), 1_ms);
    sim.schedule_at(2_ms, [&order] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{2, 100}));
    EXPECT_EQ(sim.now(), 100_ms);
}

TEST(CalendarQueueTest, PendingEventsExcludesCancelledPeriodic) {
    Simulator sim;
    int ticks = 0;
    PeriodicEvent periodic(sim, 10_ms, [&ticks] { ++ticks; });
    periodic.start();
    EXPECT_EQ(sim.pending_events(), 1u);
    periodic.cancel();
    EXPECT_EQ(sim.queue_size(), 1u);  // the tombstone is still queued
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.run();
    EXPECT_EQ(ticks, 0);
    EXPECT_EQ(sim.queue_size(), 0u);
}

TEST(CalendarQueueTest, PeriodicBeyondWheelWindowTicksExactly) {
    // A 10 ms period lands each re-arm outside a fresh wheel's ~1 ms
    // window (five ticks are too few posts to resize it), so every tick
    // takes the overflow → migrate path.
    Simulator sim;
    std::vector<Time> fire_times;
    PeriodicEvent periodic(sim, 10_ms, [&] { fire_times.push_back(sim.now()); });
    periodic.start();
    sim.run_until(55_ms);
    ASSERT_EQ(fire_times.size(), 5u);
    for (std::size_t i = 0; i < fire_times.size(); ++i) {
        EXPECT_EQ(fire_times[i], Time::from_ms(10 * (static_cast<std::int64_t>(i) + 1)));
    }
}

/// Mirrors every scheduling decision into a reference binary heap ordered
/// by (time, seq).  Cancelled entries stay in the heap, marked, and are
/// skipped when it is popped.
class ReferenceReplay {
public:
    explicit ReferenceReplay(std::uint64_t seed) : rng(seed) {}

    /// Mirror one kernel post (or periodic re-arm) at \p when; returns its
    /// seq.  Call it in the same order the kernel sees the posts.
    std::uint64_t mirror(Time when) {
        reference_.push(Ref{when, next_seq_});
        cancelled_.push_back(false);
        return next_seq_++;
    }
    void mark_cancelled(std::uint64_t seq) { cancelled_[seq] = true; }
    [[nodiscard]] std::uint64_t posts() const { return next_seq_; }

    /// The kernel's dispatch sequence must equal the heap's pop sequence
    /// exactly — the property every determinism guarantee in this repo
    /// reduces to.
    void expect_same_order() {
        std::size_t i = 0;
        while (!reference_.empty()) {
            const Ref r = reference_.top();
            reference_.pop();
            if (cancelled_[r.seq]) continue;
            ASSERT_LT(i, dispatched.size());
            ASSERT_EQ(dispatched[i], r.seq) << "at dispatch index " << i;
            ++i;
        }
        EXPECT_EQ(i, dispatched.size());
    }

    Simulator sim;
    Random rng;
    std::vector<std::uint64_t> dispatched;

private:
    struct Ref {
        Time when;
        std::uint64_t seq;
        bool operator>(const Ref& rhs) const {
            if (when != rhs.when) return when > rhs.when;
            return seq > rhs.seq;
        }
    };
    std::priority_queue<Ref, std::vector<Ref>, std::greater<>> reference_;
    std::vector<bool> cancelled_;
    std::uint64_t next_seq_ = 0;
};

TEST(CalendarQueueTest, RandomizedDispatchMatchesReferenceHeap) {
    // Input 1: pre-scheduled events within 8 ms plus run-time insertions
    // from callbacks, drained by run().
    {
        ReferenceReplay replay(4242);
        Simulator& sim = replay.sim;
        std::function<void(Time, int)> schedule_one = [&](Time when, int depth) {
            const std::uint64_t seq = replay.mirror(when);
            sim.post_at(when, [&, seq, depth] {
                replay.dispatched.push_back(seq);
                // Occasionally spawn follow-ups, including zero-delay ones
                // (same-time inserts into the bucket being drained).
                if (depth < 3 && replay.rng.chance(0.3)) {
                    const Time delay = replay.rng.chance(0.2)
                                           ? Time::zero()
                                           : Time::from_ns(replay.rng.uniform_int(1, 3'000'000));
                    schedule_one(sim.now() + delay, depth + 1);
                }
            });
        };
        for (int i = 0; i < 2000; ++i) {
            schedule_one(Time::from_ns(replay.rng.uniform_int(0, 8'000'000)), 0);
        }
        sim.run();
        ASSERT_EQ(replay.dispatched.size(), replay.posts());
        replay.expect_same_order();
    }

    // Input 2: a queue that resizes the wheel.  2×10⁴ events with
    // log-uniform horizons from 1 µs to 60 s (most beyond the initial
    // ~1 ms span) grow it; chunked run_until with posts just behind the
    // cursor between chunks — the sharded kernel's mailbox-flush pattern —
    // rewinds it; a small queue of chained events whose horizons overshoot
    // the grown span shrinks it.  Every fourth event carries a handle, some
    // of which are cancelled, and a PeriodicEvent ticks throughout.
    ReferenceReplay replay(1988);
    Simulator& sim = replay.sim;
    Random& rng = replay.rng;
    std::vector<EventHandle> handles;
    std::vector<std::uint64_t> handle_seqs;
    const auto log_uniform_horizon = [&rng] {
        return Time::from_ns(static_cast<std::int64_t>(
            std::exp(rng.uniform(std::log(1e3), std::log(60e9)))));
    };
    std::function<void(Time)> post_one = [&](Time when) {
        const std::uint64_t seq = replay.mirror(when);
        auto fire = [&, seq] {
            replay.dispatched.push_back(seq);
            if (rng.chance(0.5)) post_one(sim.now() + log_uniform_horizon());
        };
        if (seq % 4 == 0) {
            handles.push_back(sim.schedule_at(when, fire));
            handle_seqs.push_back(seq);
        } else {
            sim.post_at(when, fire);
        }
    };
    std::uint64_t tick_seq = 0;
    PeriodicEvent periodic(sim, 7_ms, [&] {
        // The kernel re-armed the tick before running it.
        replay.dispatched.push_back(tick_seq);
        tick_seq = replay.mirror(sim.now() + 7_ms);
    });
    tick_seq = replay.mirror(7_ms);
    periodic.start();

    for (int i = 0; i < 20000; ++i) post_one(log_uniform_horizon());
    ASSERT_GE(sim.queue_size(), 20000u);
    const std::size_t grown = sim.bucket_count();
    EXPECT_GT(grown, 256u) << "the wheel did not grow";

    int rewinds = 0;
    for (Time t = Time::zero(); t < Time::from_seconds(62);) {
        t = t + 20_ms;
        sim.run_until(t);
        for (int k = 0; k < 3; ++k) {
            // run_until left the cursor on the next event's bucket; a post
            // into an earlier bucket lands behind it.
            const std::int64_t width = sim.bucket_width().ns();
            const Time next = sim.next_event_time();
            const Time when = t + Time::from_ns(rng.uniform_int(0, 20'000'000));
            if (when.ns() / width < next.ns() / width) ++rewinds;
            post_one(when);
        }
        if (rng.chance(0.5)) {
            const auto i = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
            if (handles[i].pending()) {
                handles[i].cancel();
                replay.mark_cancelled(handle_seqs[i]);
            }
        }
    }
    EXPECT_GT(rewinds, 0) << "no post landed behind the cursor";

    periodic.cancel();
    replay.mark_cancelled(tick_seq);
    const Time span =
        Time::from_ns(sim.bucket_width().ns() * static_cast<std::int64_t>(sim.bucket_count()));
    std::function<void(int)> chain = [&](int left) {
        const Time when = sim.now() + span * rng.uniform(2.0, 4.0);
        const std::uint64_t seq = replay.mirror(when);
        sim.post_at(when, [&, seq, left] {
            replay.dispatched.push_back(seq);
            if (left > 0) chain(left - 1);
        });
    };
    for (int i = 0; i < 64; ++i) chain(800);
    sim.run();
    EXPECT_LT(sim.bucket_count(), grown) << "the wheel did not shrink";
    EXPECT_EQ(sim.pending_events(), 0u);
    replay.expect_same_order();
}

TEST(CalendarQueueTest, QueueSizeCountsTombstonesPendingDoesNot) {
    Simulator sim;
    auto h1 = sim.schedule_at(1_ms, [] {});
    auto h2 = sim.schedule_at(2_ms, [] {});
    sim.post_at(3_ms, [] {});
    EXPECT_EQ(sim.queue_size(), 3u);
    EXPECT_EQ(sim.pending_events(), 3u);
    h1.cancel();
    h2.cancel();
    h2.cancel();  // double-cancel must not double-count
    EXPECT_EQ(sim.queue_size(), 3u);
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run();
    EXPECT_EQ(sim.queue_size(), 0u);
    EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace wlanps::sim
