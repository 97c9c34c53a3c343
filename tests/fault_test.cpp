/// Fault-injection subsystem tests: plan parsing/validation, injector
/// scheduling and hook dispatch, the per-layer fault surfaces, the
/// scenario-level recovery machinery (liveness reclaim, burst repair,
/// proxy degradation with recovery hysteresis), and the fault table that
/// keeps validate() and the world builders' hooks in step.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "channel/link.hpp"
#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "mac/access_point.hpp"
#include "mac/station.hpp"
#include "sim/assert.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "traffic/source.hpp"

namespace wlanps {
namespace {

using namespace time_literals;

const core::SimBackend backend;

// ---- FaultPlan: builders, grammar, validation -----------------------------------

TEST(FaultPlanTest, FluentBuildersFillSpecs) {
    fault::FaultPlan plan;
    plan.client_crash(30_s, 10_s, 1).blackout(60_s, 5_s).poll_drop(90_s, 20_s, 0.5);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan.specs()[0].kind, fault::FaultKind::client_crash);
    EXPECT_EQ(plan.specs()[0].client, 1u);
    EXPECT_EQ(plan.specs()[0].until(), 40_s);
    EXPECT_DOUBLE_EQ(plan.specs()[2].probability, 0.5);
    EXPECT_TRUE(plan.has(fault::FaultKind::blackout));
    EXPECT_FALSE(plan.has(fault::FaultKind::nic_lockup));
    plan.validate();
}

TEST(FaultPlanTest, ZeroDurationWindowIsOpenEnded) {
    fault::FaultPlan plan;
    plan.silent_leave(12_s, 2);
    EXPECT_EQ(plan.specs()[0].until(), Time::max());
}

TEST(FaultPlanTest, ParseFullGrammar) {
    const auto plan = fault::FaultPlan::parse(
        "crash@30+10:c1; blackout@60+5:wlan; poll-drop@90+20%0.5; nic-lockup@10+2:c2x3~15");
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.specs()[0].kind, fault::FaultKind::client_crash);
    EXPECT_EQ(plan.specs()[0].at, 30_s);
    EXPECT_EQ(plan.specs()[0].duration, 10_s);
    EXPECT_EQ(plan.specs()[0].client, 1u);
    EXPECT_EQ(plan.specs()[1].itf, fault::FaultSpec::Itf::wlan);
    EXPECT_DOUBLE_EQ(plan.specs()[2].probability, 0.5);
    EXPECT_EQ(plan.specs()[3].repeat, 3);
    EXPECT_EQ(plan.specs()[3].period, 15_s);
    EXPECT_EQ(plan.specs()[3].client, 2u);
}

TEST(FaultPlanTest, StrRoundTripsThroughParse) {
    const auto plan = fault::FaultPlan::parse(
        "crash@30+10:c1;corruption@60+5:bt%0.25;late-join@20:c2;beacon-loss@40+8:wlan");
    const std::string canon = plan.str();
    EXPECT_EQ(fault::FaultPlan::parse(canon).str(), canon);
}

TEST(FaultPlanTest, RegistrationAtReportsDelayedJoins) {
    const auto plan = fault::FaultPlan::parse("late-join@20:c2");
    EXPECT_EQ(plan.registration_at(2), 20_s);
    EXPECT_EQ(plan.registration_at(1), Time::zero());
}

TEST(FaultPlanTest, ParseRejectsMalformedEntries) {
    EXPECT_THROW((void)fault::FaultPlan::parse("nonsense"), ContractViolation);
    EXPECT_THROW((void)fault::FaultPlan::parse("frobnicate@10"), ContractViolation);
    EXPECT_THROW((void)fault::FaultPlan::parse("blackout@5x3"), ContractViolation);
    EXPECT_THROW((void)fault::FaultPlan::parse("blackout@5:q9"), ContractViolation);
    // Validation: probability outside [0,1], crash without a target.
    EXPECT_THROW((void)fault::FaultPlan::parse("poll-drop@5+10%1.5"), ContractViolation);
    EXPECT_THROW((void)fault::FaultPlan::parse("crash@5+10"), ContractViolation);
}

TEST(FaultPlanTest, ValidateRejectsNegativeTimes) {
    fault::FaultPlan plan;
    plan.add({fault::FaultKind::blackout, Time::from_seconds(-1)});
    EXPECT_THROW(plan.validate(), ContractViolation);
}

// ---- FaultInjector: scheduling and hook dispatch --------------------------------

TEST(FaultInjectorTest, FiresHooksAtPlannedTimes) {
    sim::Simulator sim;
    fault::FaultPlan plan;
    plan.beacon_loss(10_s, 5_s).blackout(20_s, 2_s, 1).client_crash(30_s, 5_s, 2);
    fault::FaultInjector injector(sim, plan, sim::Random(900));

    std::vector<Time> beacon_at, window_at, crash_at, revive_at;
    injector.mac().beacon_loss = [&](Time until) {
        beacon_at.push_back(sim.now());
        EXPECT_EQ(until, 15_s);
    };
    injector.net().fault_window = [&](std::uint32_t client, fault::FaultSpec::Itf,
                                      double p, Time until) {
        window_at.push_back(sim.now());
        EXPECT_EQ(client, 1u);
        EXPECT_DOUBLE_EQ(p, 1.0);
        EXPECT_EQ(until, 22_s);
    };
    injector.core().crash = [&](std::uint32_t client) {
        crash_at.push_back(sim.now());
        EXPECT_EQ(client, 2u);
    };
    injector.core().revive = [&](std::uint32_t) { revive_at.push_back(sim.now()); };
    injector.arm();
    sim.run();

    ASSERT_EQ(beacon_at.size(), 1u);
    EXPECT_EQ(beacon_at[0], 10_s);
    ASSERT_EQ(window_at.size(), 1u);
    EXPECT_EQ(window_at[0], 20_s);
    ASSERT_EQ(crash_at.size(), 1u);
    EXPECT_EQ(crash_at[0], 30_s);
    ASSERT_EQ(revive_at.size(), 1u);
    EXPECT_EQ(revive_at[0], 35_s);
    EXPECT_EQ(injector.injected_total(), 3u);
    EXPECT_EQ(injector.injected(fault::FaultKind::beacon_loss), 1u);
    EXPECT_EQ(injector.injected(fault::FaultKind::client_crash), 1u);
    EXPECT_EQ(injector.injected(fault::FaultKind::wake_stuck), 0u);
}

TEST(FaultInjectorTest, RepeatSchedulesFlapping) {
    sim::Simulator sim;
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::nic_lockup;
    spec.at = 5_s;
    spec.duration = 1_s;
    spec.client = 1;
    spec.repeat = 3;
    spec.period = 10_s;
    fault::FaultPlan plan;
    plan.add(spec);
    fault::FaultInjector injector(sim, plan, sim::Random(900));
    std::vector<Time> at;
    injector.phy().nic_lockup = [&](std::uint32_t, Time) { at.push_back(sim.now()); };
    injector.arm();
    sim.run();
    ASSERT_EQ(at.size(), 3u);
    EXPECT_EQ(at[0], 5_s);
    EXPECT_EQ(at[1], 15_s);
    EXPECT_EQ(at[2], 25_s);
    EXPECT_EQ(injector.injected(fault::FaultKind::nic_lockup), 3u);
}

TEST(FaultInjectorTest, ArmRejectsUnboundHook) {
    sim::Simulator sim;
    fault::FaultPlan plan;
    plan.beacon_loss(10_s, 5_s);
    fault::FaultInjector injector(sim, plan, sim::Random(900));
    EXPECT_THROW(injector.arm(), ContractViolation);
}

TEST(FaultInjectorTest, CrashWithReviveDelayNeedsReviveHook) {
    sim::Simulator sim;
    fault::FaultPlan plan;
    plan.client_crash(1_s, 2_s, 1);
    fault::FaultInjector injector(sim, plan, sim::Random(900));
    injector.core().crash = [](std::uint32_t) {};
    EXPECT_THROW(injector.arm(), ContractViolation);
}

TEST(FaultInjectorTest, ProbabilisticOneShotsAreSeedDeterministic) {
    const auto run = [](std::uint64_t seed) {
        sim::Simulator sim;
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::blackout;
        spec.at = 1_s;
        spec.duration = 100_ms;
        spec.client = 1;
        spec.probability = 0.5;  // one-shot: the chance the fault fires at all
        spec.repeat = 40;
        spec.period = 1_s;
        fault::FaultPlan plan;
        plan.add(spec);
        fault::FaultInjector injector(sim, plan, sim::Random(seed));
        injector.net().fault_window = [](std::uint32_t, fault::FaultSpec::Itf, double, Time) {};
        injector.arm();
        sim.run();
        return injector.injected_total();
    };
    EXPECT_EQ(run(900), run(900));
    EXPECT_GT(run(900), 0u);   // some of the 40 occurrences fired...
    EXPECT_LT(run(900), 40u);  // ...and the coin skipped some
}

// ---- Per-layer fault surfaces ----------------------------------------------------

TEST(FaultSurfaceTest, LinkFaultWindowsStackWorstWins) {
    // Error-free chain so the windows are the only loss mechanism.
    channel::GilbertElliottConfig clean{1_s, 1_ms, 0.0, 0.0};
    channel::WirelessLink link(clean, sim::Random(3));
    link.add_fault_window(10_s, 20_s, 0.4);
    link.add_fault_window(12_s, 15_s, 1.0);
    EXPECT_DOUBLE_EQ(link.fault_drop(5_s), 0.0);
    EXPECT_DOUBLE_EQ(link.fault_drop(11_s), 0.4);
    EXPECT_DOUBLE_EQ(link.fault_drop(13_s), 1.0);
    EXPECT_DOUBLE_EQ(link.fault_drop(25_s), 0.0);

    const DataSize frame = DataSize::from_bytes(1000);
    const Rate rate = Rate::from_kbps(5000);
    EXPECT_TRUE(link.transmit(5_s, frame, rate));
    EXPECT_FALSE(link.transmit(13_s, frame, rate));  // inside the blackout
    EXPECT_TRUE(link.transmit(25_s, frame, rate));   // windows expired
}

TEST(FaultSurfaceTest, ApBeaconSuppressionRidesBeaconTimeout) {
    sim::Simulator sim;
    sim::Random root(77);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::psm;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(1));
    mac::StationConfig st_cfg;
    st_cfg.mode = mac::StationMode::psm;
    mac::WlanStation st(sim, bss, 1, st_cfg, mac::DcfConfig{}, phy::WlanNicConfig{},
                        root.fork(2));
    bss.set_link(1, channel::GilbertElliottConfig{800_ms, 40_ms, 1e-7, 1e-4}, root.fork(3));

    int sent = 0, delivered = 0;
    traffic::PoissonSource src(sim, [&](DataSize s) {
        ++sent;
        ap.send(1, s, [&](bool ok) { delivered += ok; });
    }, DataSize::from_bytes(1400), Rate::from_kbps(64), root.fork(4));

    ap.start();
    st.start(ap.config().beacon_interval, ap.config().beacon_interval);
    src.start();
    sim.post_at(20_s, [&] { ap.suppress_beacons(25_s); });
    sim.run_until(Time::from_seconds(60));

    // ~50 TBTTs fall inside the 5 s window; all of them skipped a beacon.
    EXPECT_GT(ap.beacons_suppressed(), 10u);
    ASSERT_GT(sent, 200);
    // The station's beacon-timeout recovery keeps the stream flowing.
    EXPECT_GT(static_cast<double>(delivered) / sent, 0.80);
}

TEST(FaultSurfaceTest, ApPollDropRetriedByPollTimeout) {
    sim::Simulator sim;
    sim::Random root(78);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::psm;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(1));
    mac::StationConfig st_cfg;
    st_cfg.mode = mac::StationMode::psm;
    mac::WlanStation st(sim, bss, 1, st_cfg, mac::DcfConfig{}, phy::WlanNicConfig{},
                        root.fork(2));
    bss.set_link(1, channel::GilbertElliottConfig{800_ms, 40_ms, 1e-7, 1e-4}, root.fork(3));

    int sent = 0, delivered = 0;
    traffic::PoissonSource src(sim, [&](DataSize s) {
        ++sent;
        ap.send(1, s, [&](bool ok) { delivered += ok; });
    }, DataSize::from_bytes(1400), Rate::from_kbps(64), root.fork(4));

    ap.start();
    st.start(ap.config().beacon_interval, ap.config().beacon_interval);
    src.start();
    ap.inject_poll_drop(0.5, 40_s, root.fork(9));
    sim.run_until(Time::from_seconds(60));

    EXPECT_GT(ap.polls_dropped(), 5u);
    ASSERT_GT(sent, 200);
    EXPECT_GT(static_cast<double>(delivered) / sent, 0.75);
}

// ---- Scenario-level injection and recovery ---------------------------------------

TEST(FaultScenarioTest, FarFutureFaultLeavesRunUntouched) {
    // The determinism contract at scenario level: a plan whose only fault
    // fires beyond the horizon must not perturb a single metric (the
    // injector draws from its own forked stream and never consumed it).
    core::StreamConfig base;
    base.clients = 2;
    base.duration = Time::from_seconds(45);
    core::StreamConfig planned = base;
    planned.fault_plan.beacon_loss(Time::from_seconds(1e6), 1_s);

    const auto a = backend.run(core::ScenarioSpec::psm().with_stream(base));
    const auto b = backend.run(core::ScenarioSpec::psm().with_stream(planned));
    ASSERT_EQ(a.clients.size(), b.clients.size());
    for (std::size_t i = 0; i < a.clients.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.clients[i].wnic_average.watts(), b.clients[i].wnic_average.watts());
        EXPECT_EQ(a.clients[i].received, b.clients[i].received);
        EXPECT_EQ(a.clients[i].underruns, b.clients[i].underruns);
    }
    EXPECT_EQ(b.faults_injected, 0u);
}

TEST(FaultScenarioTest, PsmRidesOutBeaconLoss) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = Time::from_seconds(60);
    config.fault_plan.beacon_loss(20_s, 3_s);
    const auto result = backend.run(core::ScenarioSpec::psm().with_stream(config));
    EXPECT_EQ(result.faults_injected, 1u);
    // Deep playout buffers ride out the 3 s TIM outage.
    EXPECT_GT(result.min_qos(), 0.9);
    for (const auto& c : result.clients) {
        EXPECT_GT(c.received.bytes(), DataSize::from_kilobytes(700).bytes());
    }
}

TEST(FaultScenarioTest, NicLockupForcesBtFallback) {
    // WLAN radio wedges for 15 s: the selector sees quality 0 on the locked
    // channel and carries the stream on Bluetooth instead.
    core::StreamConfig config;
    config.clients = 2;
    config.duration = Time::from_seconds(60);
    config.fault_plan.nic_lockup(20_s, 15_s, 1);
    const auto result = backend.run(core::ScenarioSpec::hotspot().with_stream(config));
    EXPECT_EQ(result.faults_injected, 1u);
    EXPECT_DOUBLE_EQ(result.min_qos(), 1.0);
    EXPECT_GT(result.clients[0].received.bytes(), DataSize::from_kilobytes(800).bytes());
}

TEST(FaultScenarioTest, SilentLeaveReclaimedByLivenessSweep) {
    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(90);
    config.fault_plan.silent_leave(30_s, 1);
    core::HotspotConfig options;
    // Liveness reclaim frees the reservation; the repair watchdog frees the
    // interface a burst to the dead client would otherwise wedge forever.
    options.resilience =
        core::ResilienceConfig{}.with_liveness_timeout(8_s).with_burst_repair(true);
    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
    EXPECT_EQ(result.faults_injected, 1u);
    EXPECT_GE(result.recovery.liveness_reclaims, 1u);
    EXPECT_GE(result.recovery.burst_repairs, 1u);
    // The survivors dip only slightly while dead-client bursts wedge and
    // repair (before the reclaim, the planner still tries to serve it).
    EXPECT_GT(result.clients[1].qos, 0.95);
    EXPECT_GT(result.clients[2].qos, 0.95);
}

TEST(FaultScenarioTest, BurstRepairFreesInterfaceAfterScheduleDrop) {
    core::StreamConfig config;
    config.clients = 2;
    config.duration = Time::from_seconds(90);
    config.fault_plan.schedule_drop(10_s, 60_s, 0.3);
    core::HotspotConfig options;
    options.resilience = core::ResilienceConfig{}.with_burst_repair(true);
    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
    EXPECT_GE(result.recovery.schedule_drops, 1u);
    // Every lost schedule message wedged an interface; the watchdog freed it.
    EXPECT_GE(result.recovery.burst_repairs, 1u);
    for (const auto& c : result.clients) {
        EXPECT_GT(c.received.bytes(), DataSize::from_kilobytes(700).bytes());
    }
}

TEST(FaultScenarioTest, ProxyDegradesAndRecoversWithDwell) {
    // Total blackout on both interfaces: the proxy pauses the stream, then
    // climbs back through audio-only, and re-enables video only after the
    // recovery dwell has elapsed.
    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(90);
    config.fault_plan.blackout(30_s, 10_s, 1);
    core::HotspotConfig options;
    options.media_proxy = true;
    const auto result = backend.run(
        core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
    ASSERT_EQ(result.degradation.size(), 1u);
    const auto& report = result.degradation[0];
    EXPECT_GE(report.video_drops, 1u);
    EXPECT_GE(report.pauses, 1u);
    EXPECT_GE(report.video_resumes, 1u);
    EXPECT_GT(report.time_paused_s, 1.0);
    EXPECT_GT(report.bytes_dropped, 0u);
    ASSERT_FALSE(report.recover_times_s.empty());
    // Outage lasted 10 s and the re-enable waited out the dwell on top.
    EXPECT_GE(report.recover_times_s.front(),
              10.0 + options.proxy_config.recovery_dwell.to_seconds() - 1.5);
}

// ---- The fault table: validated => runs -------------------------------------------

TEST(FaultTableTest, ValidateAcceptsExactlyWhatEachWorldRuns) {
    // Every scenario spelling x every fault kind on a short run: a plan
    // that passes validate() must arm and run, and a refused one must not
    // reach the world (Backend::run validates first).
    using policy::PolicyKind;
    using policy::PowerPolicyConfig;
    const auto on_cam = [](PolicyKind kind) {
        return core::ScenarioSpec::cam().with_power_policy(PowerPolicyConfig::of(kind));
    };
    const std::vector<std::pair<const char*, core::ScenarioSpec>> spellings = {
        {"cam", core::ScenarioSpec::cam()},
        {"psm", core::ScenarioSpec::psm()},
        {"cam alias", on_cam(PolicyKind::cam)},
        {"psm alias", on_cam(PolicyKind::psm)},
        {"ecmac alias", on_cam(PolicyKind::ecmac)},
        {"micro_nap", on_cam(PolicyKind::micro_nap)},
        {"pamas", on_cam(PolicyKind::pamas)},
        {"ecmac", core::ScenarioSpec::ecmac()},
        {"hotspot", core::ScenarioSpec::hotspot()},
        {"bt-only hotspot", core::ScenarioSpec::hotspot().with_hotspot(
                                core::HotspotConfig{}.with_wlan_available(false))},
        {"sharded hotspot", core::ScenarioSpec::hotspot().with_hotspot(
                                core::HotspotConfig{}.with_sharding(
                                    core::ShardingConfig{}.with_shards(2)))},
        {"hotspot_mixed", core::ScenarioSpec::hotspot_mixed().with_mix(
                              core::MixedWorkload{}.with_mp3(1).with_video(1).with_web(0))},
    };
    fault::FaultPlan one_of_each[11];
    one_of_each[0].nic_lockup(1_s, 1_s);
    one_of_each[1].wake_stuck(1_s, 5_ms);
    one_of_each[2].beacon_loss(1_s, 1_s);
    one_of_each[3].poll_drop(1_s, 1_s, 0.5);
    one_of_each[4].blackout(1_s, 1_s);
    one_of_each[5].corruption(1_s, 1_s, 0.3);
    one_of_each[6].client_crash(1_s, 1_s, 1);
    one_of_each[7].silent_leave(1_s, 1);
    one_of_each[8].delayed_registration(1_s, 1);
    one_of_each[9].schedule_drop(1_s, 1_s, 0.5);
    // Longer than a PSM station's beacon timeout plus its wake guard.
    one_of_each[10].wake_stuck(1_s, 50_ms);

    for (const auto& [name, base] : spellings) {
        for (const fault::FaultPlan& plan : one_of_each) {
            auto spec = base;
            spec.with_clients(2).with_duration(5_s).with_fault_plan(plan);
            bool valid = true;
            try {
                spec.validate();
            } catch (const ContractViolation&) {
                valid = false;
            }
            bool ran = true;
            std::string error;
            try {
                (void)backend.run(spec, 42);
            } catch (const ContractViolation& e) {
                ran = false;
                error = e.what();
            }
            EXPECT_EQ(valid, ran) << name << " x " << plan.str() << ": " << error;
        }
    }
}

}  // namespace
}  // namespace wlanps
