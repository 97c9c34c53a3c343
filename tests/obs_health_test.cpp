/// \file obs_health_test.cpp
/// Kernel health telemetry: ShardTelemetry attribution math, watchdog
/// latching and structured reporting, the federation health rollup, a
/// seeded broken-invariant run that must be caught within one sweep (with
/// a flight dump) while clean runs stay silent, and bit-identical health
/// JSON / metrics snapshots across worker-thread counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "fed/client_slab.hpp"
#include "fed/federation.hpp"
#include "obs/flight.hpp"
#include "obs/health_report.hpp"
#include "obs/hooks.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/shard_telemetry.hpp"
#include "obs/watchdog.hpp"
#include "sim/sharded.hpp"

using namespace wlanps;

namespace {

core::FederationConfig fed_config(int threads = 0, int aps = 8) {
    core::FederationConfig cfg;
    cfg.with_aps(aps).with_shards(4).with_threads(threads);
    cfg.capacity_per_ap = 64;
    cfg.mean_session = Time::from_seconds(40);
    cfg.base_arrival_hz = 0.5;
    return cfg;
}

core::ScenarioSpec fed_spec(const core::FederationConfig& cfg, int clients = 96,
                            std::uint64_t seed = 7,
                            Time duration = Time::from_seconds(60)) {
    core::StreamConfig stream;
    stream.clients = clients;
    stream.duration = duration;
    stream.seed = seed;
    return core::ScenarioSpec::federation().with_federation(cfg).with_stream(stream);
}

}  // namespace

// ---- ShardTelemetry attribution math ---------------------------------------------

TEST(ShardTelemetryTest, ImbalanceIndexIsMaxOverMeanPerQuantum) {
    obs::ShardTelemetry t(2);
    // Quantum 1: shard 0 does 30 events, shard 1 does 10 -> max 30, mean 20.
    t.record_shard(0, 30, 0, 0, 0);
    t.record_shard(1, 10, 0, 0, 0);
    t.commit_quantum();
    // Quantum 2: perfectly balanced.
    t.record_shard(0, 20, 0, 0, 0);
    t.record_shard(1, 20, 0, 0, 0);
    t.commit_quantum();
    EXPECT_EQ(t.quanta(), 2u);
    // (30 + 20) / ((40 + 40) / 2 shards) = 50/40.
    EXPECT_DOUBLE_EQ(t.imbalance_index(), 50.0 / 40.0);
}

TEST(ShardTelemetryTest, EmptyQuantaDoNotSkewTheIndex) {
    obs::ShardTelemetry t(2);
    t.commit_quantum();  // idle quantum: no events anywhere
    EXPECT_DOUBLE_EQ(t.imbalance_index(), 0.0);
    t.record_shard(0, 8, 0, 0, 0);
    t.record_shard(1, 8, 0, 0, 0);
    t.commit_quantum();
    EXPECT_DOUBLE_EQ(t.imbalance_index(), 1.0);
}

TEST(ShardTelemetryTest, PublishEmitsDeterministicPerShardKeys) {
    obs::ShardTelemetry t(2);
    t.record_shard(0, 5, 100, 10, 1);
    t.record_shard(1, 3, 50, 5, 0);
    t.commit_quantum();
    obs::MetricsRegistry reg;
    t.publish(reg);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_NE(snap.counter("sim.shard.0.events"), nullptr);
    EXPECT_NE(snap.counter("sim.shard.1.events"), nullptr);
    EXPECT_EQ(snap.counter("sim.shard.0.events")->value(), 5u);
    EXPECT_NE(snap.gauge("sim.shard.imbalance.index"), nullptr);
    // Timing keys never reach the registry.
    EXPECT_EQ(snap.counter("sim.shard.0.dispatch_ns"), nullptr);
}

// ---- watchdog mechanics ----------------------------------------------------------

TEST(WatchdogTest, TrippedChecksLatchAndReportOnce) {
    obs::Watchdog wd;
    int calls = 0;
    wd.add_check("test.always_bad", [&calls]() -> std::optional<std::string> {
        ++calls;
        return "broken";
    });
    wd.add_check("test.fine", []() -> std::optional<std::string> { return std::nullopt; });
    EXPECT_EQ(wd.sweep(1000), 1u);
    EXPECT_EQ(wd.sweep(2000), 0u);  // latched: no new violation
    EXPECT_EQ(wd.sweep(3000), 0u);
    EXPECT_EQ(calls, 1);  // the tripped check never re-runs
    EXPECT_EQ(wd.sweeps(), 3u);
    EXPECT_EQ(wd.violations(), 1u);
    EXPECT_FALSE(wd.healthy());
    ASSERT_EQ(wd.reports().size(), 1u);
    const obs::WatchdogReport& r = wd.reports()[0];
    EXPECT_EQ(r.check, "test.always_bad");
    EXPECT_EQ(r.message, "broken");
    EXPECT_EQ(r.t_ns, 1000);
    EXPECT_EQ(r.sweep, 1u);
    EXPECT_TRUE(r.flight_dump.empty());
}

TEST(WatchdogTest, JsonIsStructured) {
    obs::Watchdog wd;
    wd.add_check("a", []() -> std::optional<std::string> { return "boom"; });
    wd.sweep(5);
    EXPECT_EQ(wd.to_json(),
              "{\"checks\":1,\"sweeps\":1,\"violations\":1,\"reports\":[{\"check\":\"a\","
              "\"t_ns\":5,\"sweep\":1,\"message\":\"boom\",\"flight_dump\":\"\"}]}");
}

TEST(WatchdogTest, ViolationWithFlightRecorderWritesDump) {
    obs::FlightRecorder flight(64);
    obs::Watchdog wd;
    const std::string prefix = ::testing::TempDir() + "wd_test";
    wd.set_flight(&flight, prefix);
    wd.add_check("test.bad", []() -> std::optional<std::string> { return "x"; });
    wd.sweep(1);
    ASSERT_EQ(wd.reports().size(), 1u);
    const std::string dump = wd.reports()[0].flight_dump;
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(dump, prefix + ".test.bad.0.flight.json");
    std::ifstream in(dump);
    EXPECT_TRUE(in.good()) << "flight dump not written: " << dump;
    std::remove(dump.c_str());
}

// ---- clean runs stay silent ------------------------------------------------------

TEST(FederationHealthTest, CleanRunProducesZeroReportsAndAHealthyRollup) {
    obs::Watchdog wd;
    obs::ScopedWatchdog scope(wd);
    const fed::FederationResult fr = fed::run_federation(fed_spec(fed_config()));
    // The federation registered and swept its invariants...
    EXPECT_GE(wd.check_count(), 6u);
    EXPECT_GT(wd.sweeps(), 1u);
    // ...and a healthy run trips none of them.
    EXPECT_TRUE(wd.healthy()) << wd.to_json();
    EXPECT_EQ(wd.violations(), 0u);

    const obs::HealthReport& h = fr.health;
    EXPECT_EQ(h.scope, "federation");
    EXPECT_EQ(h.shards, 4u);
    EXPECT_GT(h.quanta, 0u);
    EXPECT_GT(h.events, 0u);
    ASSERT_EQ(h.per_shard.size(), 4u);
    ASSERT_EQ(h.per_cell.size(), 8u);
    EXPECT_TRUE(h.has_population);
    EXPECT_TRUE(h.conserved);
    EXPECT_TRUE(h.has_watchdog);
    EXPECT_EQ(h.watchdog_reports.size(), 0u);
    std::uint64_t shard_events = 0;
    for (const auto& sh : h.per_shard) shard_events += sh.events;
    EXPECT_EQ(shard_events, h.events);
}

TEST(FederationHealthTest, RunWithoutWatchdogStillBuildsHealth) {
    const fed::FederationResult fr = fed::run_federation(fed_spec(fed_config()));
    EXPECT_FALSE(fr.health.has_watchdog);
    EXPECT_TRUE(fr.health.conserved);
    EXPECT_GT(fr.health.events, 0u);
}

// ---- a corrupted invariant is caught within one sweep ----------------------------

TEST(FederationHealthTest, CorruptedConservationIsCaughtWithinOneSweepWithDump) {
    obs::FlightRecorder flight(256);
    obs::Watchdog wd;
    const std::string prefix = ::testing::TempDir() + "fed_corrupt";
    wd.set_flight(&flight, prefix);
    obs::ScopedWatchdog scope(wd);

    const core::ScenarioSpec spec = fed_spec(fed_config(/*threads=*/0));
    fed::Federation federation(spec);
    // Seeded fault: at t = 5 s an event on shard 0 silently inflates a
    // slab row's completed-burst counter, breaking admitted >= completed +
    // shed.  Inline execution (threads = 0) so the cross-owner write is
    // not a data race.
    const Time corrupt_at = Time::from_seconds(5);
    federation.kernel().shard(0).post_at(corrupt_at, [&federation] {
        federation.slab().bursts_completed[0] += 1000;
    });
    const fed::FederationResult fr = federation.run();

    ASSERT_GE(wd.violations(), 1u) << wd.to_json();
    const obs::WatchdogReport& r = wd.reports()[0];
    EXPECT_EQ(r.check, "fed.conservation");
    // Caught by the first chunk-boundary sweep after the corruption: the
    // 60 s run sweeps every 60/64 s, so detection lands within one sweep
    // interval of the fault.
    EXPECT_GE(r.t_ns, corrupt_at.ns());
    EXPECT_LE(r.t_ns, corrupt_at.ns() + Time::from_seconds(60).ns() / 64 + 1);
    EXPECT_NE(r.message.find("completed"), std::string::npos) << r.message;
    // The report carries a flight dump written at detection time.
    ASSERT_FALSE(r.flight_dump.empty());
    std::ifstream in(r.flight_dump);
    EXPECT_TRUE(in.good()) << "flight dump not written: " << r.flight_dump;
    std::remove(r.flight_dump.c_str());

    // The run finished (no crash) and the rollup records the violation.
    EXPECT_TRUE(fr.health.has_watchdog);
    EXPECT_FALSE(fr.health.conserved);
    EXPECT_GE(fr.health.watchdog_reports.size(), 1u);
}

// ---- determinism across worker-thread counts -------------------------------------

TEST(FederationHealthTest, HealthJsonAndMetricsAreBitIdenticalAcrossThreads) {
    auto run_one = [](int threads) {
        obs::MetricsRegistry reg;
        obs::ScopedRegistry scope(reg);
        const fed::FederationResult fr =
            fed::run_federation(fed_spec(fed_config(threads, /*aps=*/16), 128));
        return std::pair<std::string, std::string>(fr.health.to_json(),
                                                   obs::to_json(reg.snapshot()));
    };
    const auto [health0, metrics0] = run_one(0);
    EXPECT_NE(health0.find("\"scope\":\"federation\""), std::string::npos);
    for (int threads : {1, 2, 4}) {
        const auto [health, metrics] = run_one(threads);
        EXPECT_EQ(health0, health) << threads << " threads";
        EXPECT_EQ(metrics0, metrics) << threads << " threads";
    }
}

TEST(ShardedHealthTest, HotspotHealthIsBitIdenticalAcrossThreads) {
    auto run_one = [](int threads) {
        core::StreamConfig config;
        config.clients = 16;
        config.duration = Time::from_seconds(30);
        core::HotspotConfig options;
        options.bt_available = false;
        options.sharding = core::ShardingConfig{}.with_shards(4).with_threads(threads);
        obs::HealthReport health;
        options.health = &health;
        auto result = core::SimBackend{}.run(
            core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
        return health.to_json();
    };
    const std::string inline_json = run_one(0);
    EXPECT_NE(inline_json.find("\"scope\":\"sharded-hotspot\""), std::string::npos);
    for (int threads : {1, 2, 4}) {
        EXPECT_EQ(inline_json, run_one(threads)) << threads << " threads";
    }
}

TEST(ShardedHealthTest, TimingSectionOnlyAppearsOnRequest) {
    core::StreamConfig config;
    config.clients = 8;
    config.duration = Time::from_seconds(10);
    core::HotspotConfig options;
    options.bt_available = false;
    options.sharding = core::ShardingConfig{}.with_shards(2).with_threads(2);
    obs::HealthReport health;
    options.health = &health;
    auto result = core::SimBackend{}.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
    EXPECT_EQ(health.to_json(false).find("\"timing\""), std::string::npos);
    EXPECT_NE(health.to_json(true).find("\"timing\""), std::string::npos);
    const std::string with_timing = health.to_json(true);
    EXPECT_NE(with_timing.find("\"barrier_wait_ns\""), std::string::npos);
    EXPECT_NE(with_timing.find("\"barrier_overhead\""), std::string::npos);
}
