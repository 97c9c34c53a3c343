/// Sharded parallel kernel tests: the barrier-quantum kernel must be
/// bit-identical to the inline (threads=0) execution of the same sharded
/// world at every worker-thread count, mailboxes must merge in
/// deterministic (time, source, sequence) order, and contract violations
/// (lookahead, capacity) must fail loudly.  The federation's own tests
/// (fed_federation_test.cpp) drive the same checks at scenario level.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/assert.hpp"
#include "sim/digest.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace wlanps::sim {
namespace {

constexpr Time kLookahead = Time::from_ms(10);

/// A token-passing ring: every delivered token is logged on its shard and
/// forwarded to the next shard one lookahead later, interleaved with
/// shard-local events.  Any reordering or lost/dup delivery changes the
/// per-shard logs, so hashing them detects nondeterminism.
struct RingWorld {
    ShardedSimulator shx;
    std::vector<std::vector<std::uint64_t>> logs;
    std::vector<std::uint64_t> local_ticks;

    explicit RingWorld(ShardedConfig config)
        : shx(std::move(config)),
          logs(shx.shard_count()),
          local_ticks(shx.shard_count(), 0) {}

    void seed_tokens() {
        for (std::size_t s = 0; s < shx.shard_count(); ++s) {
            shx.shard(s).post_at(Time::zero(), [this, s] { hop(s, s * 1000); });
        }
    }

    void hop(std::size_t at, std::uint64_t token) {
        const Time now = shx.shard(at).now();
        logs[at].push_back(token * 1000003 +
                           static_cast<std::uint64_t>(now.ns() % 1000003));
        // A shard-local event between quantum boundaries, to interleave
        // local dispatch with mailbox flushes.
        shx.shard(at).post_at(now + Time::from_ms(3), [this, at] { ++local_ticks[at]; });
        const std::size_t to = (at + 1) % shx.shard_count();
        shx.post_cross(at, to, now + shx.config().lookahead,
                       [this, to, token] { hop(to, token + 1); });
    }

    [[nodiscard]] std::uint64_t fingerprint() const {
        Fnv1a h;
        for (std::size_t s = 0; s < logs.size(); ++s) {
            for (std::uint64_t v : logs[s]) h.u64(v + s);
            h.u64(local_ticks[s]);
        }
        return h.value();
    }
};

struct RingRun {
    std::uint64_t fingerprint = 0;
    std::uint64_t quanta = 0;
    std::vector<ShardStats> stats;
};

RingRun run_ring(std::size_t shards, std::size_t threads) {
    ShardedConfig config;
    config.shards = shards;
    config.threads = threads;
    config.lookahead = kLookahead;
    RingWorld world(config);
    world.seed_tokens();
    world.shx.run_until(Time::from_seconds(2));
    RingRun out;
    out.fingerprint = world.fingerprint();
    out.quanta = world.shx.quanta();
    for (std::size_t s = 0; s < shards; ++s) out.stats.push_back(world.shx.stats(s));
    return out;
}

void expect_same_run(const RingRun& a, const RingRun& b, const char* what) {
    EXPECT_EQ(a.fingerprint, b.fingerprint) << what;
    EXPECT_EQ(a.quanta, b.quanta) << what;
    ASSERT_EQ(a.stats.size(), b.stats.size());
    for (std::size_t s = 0; s < a.stats.size(); ++s) {
        EXPECT_EQ(a.stats[s].events_dispatched, b.stats[s].events_dispatched) << what << s;
        EXPECT_EQ(a.stats[s].cross_sent, b.stats[s].cross_sent) << what << s;
        EXPECT_EQ(a.stats[s].cross_received, b.stats[s].cross_received) << what << s;
    }
}

TEST(ShardedKernelTest, StrictBitIdentityAcrossThreadCounts) {
    const RingRun reference = run_ring(3, 0);
    EXPECT_GT(reference.fingerprint, 0u);
    EXPECT_GT(reference.stats[0].cross_received, 0u);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        const RingRun parallel = run_ring(3, threads);
        expect_same_run(reference, parallel, "threads mismatch vs inline, shard ");
    }
}

TEST(ShardedKernelTest, StrictIdenticalForDifferentShardCountsOfSameRing) {
    // Not required to match across *shard* counts (different worlds), but
    // each shard count must be self-consistent across thread counts.
    for (std::size_t shards : {2u, 5u, 8u}) {
        const RingRun reference = run_ring(shards, 0);
        const RingRun parallel = run_ring(shards, 4);
        expect_same_run(reference, parallel, "shards self-consistency, shard ");
    }
}

TEST(ShardedKernelTest, MailboxMergesInTimeSourceSequenceOrder) {
    ShardedConfig config;
    config.shards = 3;
    config.lookahead = kLookahead;
    ShardedSimulator shx(config);
    std::vector<int> order;
    const Time when = kLookahead;  // same timestamp for every message
    // Posted deliberately out of (src, seq) order.
    shx.post_cross(2, 0, when, [&order] { order.push_back(20); });
    shx.post_cross(1, 0, when, [&order] { order.push_back(10); });
    shx.post_cross(1, 0, when, [&order] { order.push_back(11); });
    shx.post_cross(2, 0, when, [&order] { order.push_back(21); });
    // A later timestamp posted first must still fire last.
    shx.post_cross(1, 0, when + Time::from_ms(1), [&order] { order.push_back(99); });
    shx.run_until(Time::from_ms(40));
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 99}));
}

TEST(ShardedKernelTest, CrossPostBelowLookaheadIsRejected) {
    ShardedConfig config;
    config.shards = 2;
    config.lookahead = kLookahead;
    ShardedSimulator shx(config);
    EXPECT_THROW(shx.post_cross(0, 1, Time::from_ms(5), [] {}), ContractViolation);
    // Exactly at the lookahead bound is allowed.
    shx.post_cross(0, 1, kLookahead, [] {});
    // Same-shard posts have no lookahead floor (plain local post).
    shx.post_cross(0, 0, Time::from_ms(1), [] {});
    shx.run_until(Time::from_ms(30));
}

TEST(ShardedKernelTest, MailboxCapacityIsAContract) {
    ShardedConfig config;
    config.shards = 2;
    config.lookahead = kLookahead;
    config.mailbox_capacity = 2;
    ShardedSimulator shx(config);
    shx.post_cross(0, 1, kLookahead, [] {});
    shx.post_cross(0, 1, kLookahead, [] {});
    EXPECT_THROW(shx.post_cross(0, 1, kLookahead, [] {}), ContractViolation);
}

TEST(ShardedKernelTest, CancelAcrossQuantumBoundary) {
    ShardedConfig config;
    config.shards = 2;
    config.threads = 2;
    config.lookahead = kLookahead;
    ShardedSimulator shx(config);
    bool cancelled_fired = false;
    bool control_fired = false;
    // Scheduled in quantum [20, 30); cancelled from the same shard during
    // quantum [0, 10) — the tombstone must survive the barrier crossings.
    EventHandle doomed = shx.shard(0).schedule_at(Time::from_ms(25),
                                                  [&cancelled_fired] { cancelled_fired = true; });
    shx.shard(0).post_at(Time::from_ms(2), [&doomed] { doomed.cancel(); });
    shx.shard(0).post_at(Time::from_ms(25), [&control_fired] { control_fired = true; });
    shx.run_until(Time::from_ms(50));
    EXPECT_FALSE(cancelled_fired);
    EXPECT_TRUE(control_fired);
}

TEST(ShardedKernelTest, IdleQuantaAreJumpedDeterministically) {
    for (std::size_t threads : {0u, 2u}) {
        ShardedConfig config;
        config.shards = 2;
        config.threads = threads;
        config.lookahead = kLookahead;
        ShardedSimulator shx(config);
        int fired = 0;
        shx.shard(0).post_at(Time::zero(), [&fired] { ++fired; });
        shx.shard(1).post_at(Time::from_seconds(5), [&fired] { ++fired; });
        shx.run_until(Time::from_seconds(10));
        EXPECT_EQ(fired, 2);
        // 10 s / 10 ms = 1000 naive quanta; the idle jump must skip the
        // empty windows instead of spinning the barrier through them.
        EXPECT_LT(shx.quanta(), 10u) << "threads=" << threads;
        EXPECT_EQ(shx.now(), Time::from_seconds(10));
    }
}

TEST(ShardedKernelTest, ConfigValidation) {
    EXPECT_THROW(ShardedConfig{}.with_shards(0).validate(), ContractViolation);
    EXPECT_THROW(ShardedConfig{}.with_lookahead(Time::zero()).validate(), ContractViolation);
    EXPECT_THROW(ShardedConfig{}.with_mailbox_capacity(0).validate(), ContractViolation);
    ShardedConfig ok;
    ok.shards = 4;
    ok.threads = 2;
    ok.validate();
}

TEST(ShardedKernelTest, CallbackExceptionPropagatesFromWorkers) {
    ShardedConfig config;
    config.shards = 2;
    config.threads = 2;
    config.lookahead = kLookahead;
    ShardedSimulator shx(config);
    shx.shard(1).post_at(Time::from_ms(5), [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(shx.run_until(Time::from_ms(20)), std::runtime_error);
}

}  // namespace
}  // namespace wlanps::sim
