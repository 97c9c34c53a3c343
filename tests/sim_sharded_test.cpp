/// Sharded parallel kernel tests: the barrier-quantum kernel must be
/// bit-identical to the inline (threads=0) execution of the same sharded
/// world at every worker-thread count, mailboxes must merge in
/// deterministic (time, source, sequence) order, and contract violations
/// (lookahead, capacity) must fail loudly.  Scenario-level tests drive the
/// same checks through the sharded multi-cell hotspot.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "fault/fault.hpp"
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

namespace wlanps::core {
namespace {

const SimBackend backend;

ScenarioSpec sharded_spec(int clients, int shards, int threads, std::uint64_t seed,
                          Time duration = Time::from_seconds(40)) {
    StreamConfig stream;
    stream.clients = clients;
    stream.duration = duration;
    stream.seed = seed;
    HotspotConfig options;
    options.sharding = ShardingConfig{}.with_shards(shards).with_threads(threads);
    return ScenarioSpec::hotspot().with_stream(stream).with_hotspot(options);
}

void expect_bit_identical(const ScenarioResult& a, const ScenarioResult& b,
                          const char* what) {
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.clients.size(), b.clients.size()) << what;
    for (std::size_t i = 0; i < a.clients.size(); ++i) {
        // Exact equality, not near-equality: the strict barrier policy
        // promises bit-identical floating-point trajectories.
        EXPECT_EQ(a.clients[i].wnic_average.watts(), b.clients[i].wnic_average.watts())
            << what << " client " << i;
        EXPECT_EQ(a.clients[i].wnic_energy.joules(), b.clients[i].wnic_energy.joules())
            << what << " client " << i;
        EXPECT_EQ(a.clients[i].device_average.watts(), b.clients[i].device_average.watts())
            << what << " client " << i;
        EXPECT_EQ(a.clients[i].qos, b.clients[i].qos) << what << " client " << i;
        EXPECT_EQ(a.clients[i].underruns, b.clients[i].underruns) << what << " client " << i;
        EXPECT_EQ(a.clients[i].received, b.clients[i].received) << what << " client " << i;
    }
}

TEST(ShardedHotspotTest, BitIdenticalAtEveryThreadCount) {
    const ScenarioResult reference = backend.run(sharded_spec(5, 3, 0, 7));
    EXPECT_EQ(reference.label, "hotspot-sharded-edf");
    ASSERT_EQ(reference.clients.size(), 5u);
    for (const ClientMetrics& c : reference.clients) {
        EXPECT_GT(c.received.bytes(), 0u);
        EXPECT_GT(c.wnic_energy.joules(), 0.0);
    }
    for (int threads : {1, 2, 3}) {  // validation caps workers at the shard count
        const ScenarioResult parallel = backend.run(sharded_spec(5, 3, threads, 7));
        expect_bit_identical(reference, parallel, "threads");
    }
}

TEST(ShardedHotspotTest, Fig2ShapeBitIdenticalAcrossThreadCounts) {
    // The fig2 world shape — 3 MP3 clients, one per cell, WLAN+BT — over a
    // longer horizon, strict policy: every worker count must reproduce the
    // inline run exactly.
    const ScenarioResult reference =
        backend.run(sharded_spec(3, 3, 0, 42, Time::from_seconds(120)));
    for (const ClientMetrics& c : reference.clients) {
        EXPECT_GT(c.received.bytes(), 0u);
        EXPECT_GT(c.qos, 0.5);
    }
    for (int threads : {1, 2, 3}) {
        const ScenarioResult parallel =
            backend.run(sharded_spec(3, 3, threads, 42, Time::from_seconds(120)));
        expect_bit_identical(reference, parallel, "fig2-shape threads");
    }
}

TEST(ShardedHotspotTest, SeedSensitivity) {
    const ScenarioResult a = backend.run(sharded_spec(4, 2, 2, 1));
    const ScenarioResult b = backend.run(sharded_spec(4, 2, 2, 2));
    ASSERT_EQ(a.clients.size(), b.clients.size());
    bool any_difference = false;
    for (std::size_t i = 0; i < a.clients.size(); ++i) {
        if (a.clients[i].wnic_energy.joules() != b.clients[i].wnic_energy.joules()) {
            any_difference = true;
        }
    }
    EXPECT_TRUE(any_difference) << "seed is being ignored";
}

TEST(ShardedHotspotTest, WlanOnlySixtyFourClientSmoke) {
    StreamConfig stream;
    stream.clients = 64;
    stream.duration = Time::from_seconds(8);
    stream.seed = 3;
    HotspotConfig options;
    options.bt_available = false;  // 8 clients per cell exceeds a piconet
    options.sharding = ShardingConfig{}.with_shards(8).with_threads(2);
    const ScenarioResult result =
        backend.run(ScenarioSpec::hotspot().with_stream(stream).with_hotspot(options));
    ASSERT_EQ(result.clients.size(), 64u);
    for (const ClientMetrics& c : result.clients) EXPECT_GT(c.received.bytes(), 0u);
}

TEST(ShardedHotspotTest, ShardingRejectsIncompatibleFeatures) {
    StreamConfig stream;
    stream.clients = 4;
    stream.seed = 1;
    {
        HotspotConfig options;
        options.media_proxy = true;
        options.sharding = ShardingConfig{}.with_shards(2);
        EXPECT_THROW(
            backend.run(ScenarioSpec::hotspot().with_stream(stream).with_hotspot(options)),
            ContractViolation);
    }
    {
        // 64 BT clients over 8 cells = 8 per piconet > the 7-slave limit.
        StreamConfig big = stream;
        big.clients = 64;
        HotspotConfig options;
        options.sharding = ShardingConfig{}.with_shards(8);
        EXPECT_THROW(
            backend.run(ScenarioSpec::hotspot().with_stream(big).with_hotspot(options)),
            ContractViolation);
    }
}

// --- fault plans on the sharded world ------------------------------------

ScenarioSpec sharded_fault_spec(const fault::FaultPlan& plan, int threads,
                                std::uint64_t seed = 5) {
    StreamConfig stream;
    stream.clients = 4;
    stream.duration = Time::from_seconds(40);
    stream.seed = seed;
    stream.fault_plan = plan;
    HotspotConfig options;
    options.sharding = ShardingConfig{}.with_shards(2).with_threads(threads);
    return ScenarioSpec::hotspot().with_stream(stream).with_hotspot(options);
}

TEST(ShardedHotspotFaultTest, NicLockupInjectsAndStaysThreadInvariant) {
    fault::FaultPlan plan;
    plan.nic_lockup(Time::from_seconds(10), Time::from_seconds(3));
    const ScenarioResult inline_run = backend.run(sharded_fault_spec(plan, 0));
    EXPECT_GT(inline_run.faults_injected, 0u);
    const ScenarioResult parallel = backend.run(sharded_fault_spec(plan, 2));
    expect_bit_identical(inline_run, parallel, "nic-lockup threads");
    EXPECT_EQ(inline_run.faults_injected, parallel.faults_injected);
}

TEST(ShardedHotspotFaultTest, CrashAndLateJoinPerCell) {
    // One crash and one delayed registration per cell (clients 1, 3 land
    // on shard 0; clients 2, 4 on shard 1): the planner must keep serving
    // the healthy clients, book zero-delivery completions for the crashed
    // ones, and hold grants until the late joiners register.
    fault::FaultPlan plan;
    plan.client_crash(Time::from_seconds(12), Time::from_seconds(8), 1)
        .client_crash(Time::from_seconds(14), Time::from_seconds(8), 2)
        .delayed_registration(Time::from_seconds(5), 3)
        .delayed_registration(Time::from_seconds(6), 4);
    const ScenarioResult inline_run = backend.run(sharded_fault_spec(plan, 0));
    EXPECT_GT(inline_run.faults_injected, 0u);
    ASSERT_EQ(inline_run.clients.size(), 4u);
    // Every client — crashed-and-revived or late-joined — still receives.
    for (const ClientMetrics& c : inline_run.clients) {
        EXPECT_GT(c.received.bytes(), 0u);
    }
    const ScenarioResult parallel = backend.run(sharded_fault_spec(plan, 2));
    expect_bit_identical(inline_run, parallel, "crash/late-join threads");
    EXPECT_EQ(inline_run.faults_injected, parallel.faults_injected);
}

TEST(ShardedHotspotFaultTest, BeaconAndPollKindsStayRejected) {
    // The sharded world has no beacon/poll MAC: those kinds must still be
    // refused at validation with a pointer to the single-queue hotspot.
    {
        fault::FaultPlan plan;
        plan.beacon_loss(Time::from_seconds(5), Time::from_seconds(5));
        EXPECT_THROW(backend.run(sharded_fault_spec(plan, 0)), ContractViolation);
    }
    {
        fault::FaultPlan plan;
        plan.schedule_drop(Time::from_seconds(5), Time::from_seconds(5), 0.5);
        EXPECT_THROW(backend.run(sharded_fault_spec(plan, 0)), ContractViolation);
    }
}

}  // namespace
}  // namespace wlanps::core
