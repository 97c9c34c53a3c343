/// Determinism tests for the policy-BSS worlds on the sharded kernel:
/// under the strict barrier policy, a grid of micro_nap/pamas worlds (one
/// per shard, each with its own seed and energy ledger) must end in a
/// bit-identical state at every worker-thread count, and different seeds
/// must actually move the fingerprint (the digest is not a constant).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "obs/energy_ledger.hpp"
#include "policy/policy.hpp"
#include "policy/world.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace wlanps::policy {
namespace {

constexpr std::size_t kShards = 4;
constexpr Time kHorizon = Time::from_seconds(8);

/// Build one policy world per shard and run the grid to the horizon.
/// Returns a combined digest of every world's end-state plus the per-shard
/// ledger totals (energy attribution must be deterministic too).
std::uint64_t run_policy_grid(PolicyKind kind, std::size_t threads,
                              std::uint64_t seed_base) {
    sim::ShardedConfig config;
    config.shards = kShards;
    config.threads = threads;
    config.lookahead = Time::from_ms(10);
    sim::ShardedSimulator shx(config);

    // Explicit per-shard ledgers: the thread-local obs::current_ledger()
    // is invisible to the kernel's worker threads.
    std::vector<obs::EnergyLedger> ledgers(kShards);
    std::vector<std::unique_ptr<PolicyBssWorld>> worlds;
    for (std::size_t s = 0; s < kShards; ++s) {
        PolicyWorldConfig wc;
        wc.clients = 2;
        wc.seed = seed_base + s;
        wc.policy = PowerPolicyConfig::of(kind);
        if (kind == PolicyKind::micro_nap) {
            // Uplink traffic exercises the DCF backoff-nap path as well.
            wc.policy.with_uplink(Time::from_ms(250), DataSize::from_bytes(200));
        }
        worlds.push_back(
            std::make_unique<PolicyBssWorld>(shx.shard(s), wc, &ledgers[s]));
    }
    for (auto& world : worlds) world->start();
    shx.run_until(kHorizon);

    std::uint64_t digest = 1469598103934665603ull;
    const auto mix = [&digest](std::uint64_t v) {
        digest ^= v;
        digest *= 1099511628211ull;
    };
    for (std::size_t s = 0; s < kShards; ++s) {
        worlds[s]->settle();
        mix(worlds[s]->fingerprint());
        std::uint64_t bits = 0;
        const double total = ledgers[s].total();
        static_assert(sizeof(bits) == sizeof(total));
        std::memcpy(&bits, &total, sizeof(bits));
        mix(bits);
    }
    return digest;
}

TEST(PolicyDeterminismTest, MicroNapGridIsBitIdenticalAcrossThreadCounts) {
    const std::uint64_t reference = run_policy_grid(PolicyKind::micro_nap, 0, 42);
    for (const std::size_t threads : {1u, 2u, 4u}) {
        EXPECT_EQ(run_policy_grid(PolicyKind::micro_nap, threads, 42), reference)
            << "threads=" << threads;
    }
}

TEST(PolicyDeterminismTest, PamasGridIsBitIdenticalAcrossThreadCounts) {
    const std::uint64_t reference = run_policy_grid(PolicyKind::pamas, 0, 42);
    for (const std::size_t threads : {1u, 2u, 4u}) {
        EXPECT_EQ(run_policy_grid(PolicyKind::pamas, threads, 42), reference)
            << "threads=" << threads;
    }
}

TEST(PolicyDeterminismTest, SeedsActuallyMoveTheFingerprint) {
    EXPECT_NE(run_policy_grid(PolicyKind::micro_nap, 0, 42),
              run_policy_grid(PolicyKind::micro_nap, 0, 1042));
    EXPECT_NE(run_policy_grid(PolicyKind::pamas, 0, 42),
              run_policy_grid(PolicyKind::pamas, 0, 1042));
}

TEST(PolicyDeterminismTest, RepeatedRunsReproduceExactly) {
    EXPECT_EQ(run_policy_grid(PolicyKind::micro_nap, 2, 7),
              run_policy_grid(PolicyKind::micro_nap, 2, 7));
}

}  // namespace
}  // namespace wlanps::policy
