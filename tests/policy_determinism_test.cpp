/// Determinism tests for the policy worlds on the sharded kernel: under
/// the strict barrier policy, a grid of micro_nap/pamas BSS worlds (one
/// per shard, each with its own seed and energy ledger) must end in a
/// bit-identical state at every worker-thread count, and different seeds
/// must actually move the fingerprint (the digest is not a constant).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bss_world.hpp"
#include "core/scenario_spec.hpp"
#include "obs/energy_ledger.hpp"
#include "policy/policy.hpp"
#include "policy/station.hpp"
#include "sim/digest.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace wlanps::policy {
namespace {

constexpr std::size_t kShards = 4;
constexpr int kClients = 2;
constexpr Time kHorizon = Time::from_seconds(8);

/// Build one policy world per shard and run the grid to the horizon.
/// Returns a digest of every station's end state plus the per-shard
/// ledger totals (energy attribution must be deterministic too).
std::uint64_t run_policy_grid(PolicyKind kind, std::size_t threads,
                              std::uint64_t seed_base) {
    sim::ShardedConfig config;
    config.shards = kShards;
    config.threads = threads;
    config.lookahead = Time::from_ms(10);
    sim::ShardedSimulator shx(config);

    auto power = PowerPolicyConfig::of(kind);
    if (kind == PolicyKind::micro_nap) {
        // Uplink traffic exercises the DCF backoff-nap path as well.
        power.with_uplink(Time::from_ms(250), DataSize::from_bytes(200));
    }
    const auto spec = core::ScenarioSpec::cam().with_power_policy(power).with_clients(kClients);

    // Explicit per-shard ledgers: the thread-local obs::current_ledger()
    // is invisible to the kernel's worker threads.
    std::vector<obs::EnergyLedger> ledgers(kShards);
    std::vector<std::unique_ptr<core::BssWorld>> worlds;
    for (std::size_t s = 0; s < kShards; ++s) {
        worlds.push_back(
            std::make_unique<core::BssWorld>(shx.shard(s), spec, seed_base + s, &ledgers[s]));
    }
    for (auto& world : worlds) world->start();
    shx.run_until(kHorizon);

    sim::Fnv1a digest;
    for (std::size_t s = 0; s < kShards; ++s) {
        (void)worlds[s]->finish();
        for (int i = 0; i < kClients; ++i) {
            const PolicyStation& st = worlds[s]->policy_station(i);
            digest.f64(st.energy_consumed().joules());
            digest.u64(static_cast<std::uint64_t>(st.bytes_received().bytes()));
            digest.u64(st.frames_received()).u64(st.beacons_heard()).u64(st.cycles());
            digest.u64(static_cast<std::uint64_t>(st.bytes_sent().bytes()));
            if (const power::Battery* b = st.battery()) digest.f64(b->level());
        }
        digest.f64(ledgers[s].total());
    }
    return digest.value();
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
