/// Tests for the pluggable power-policy subsystem (src/policy): policy
/// selection/parsing, μNap break-even math and nav_sleep reallocation,
/// PAMAS battery-driven stretching and the PAMAS station against a
/// buffering AP, alias kinds rewritten into the native scenarios,
/// per-policy fault whitelists, and exact ledger attribution.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/backend.hpp"
#include "core/bss_world.hpp"
#include "core/scenario_spec.hpp"
#include "fault/fault.hpp"
#include "mac/access_point.hpp"
#include "mac/bss.hpp"
#include "obs/energy_ledger.hpp"
#include "phy/calibration.hpp"
#include "phy/wlan_nic.hpp"
#include "policy/micro_nap.hpp"
#include "policy/pamas_policy.hpp"
#include "policy/policy.hpp"
#include "policy/station.hpp"
#include "sim/assert.hpp"
#include "sim/simulator.hpp"
#include "traffic/source.hpp"

namespace wlanps {
namespace {

namespace cal = phy::calibration;

const core::SimBackend backend;

core::ScenarioSpec policy_spec(policy::PowerPolicyConfig power, int clients = 2,
                               Time duration = Time::from_seconds(15)) {
    return core::ScenarioSpec::cam()
        .with_power_policy(std::move(power))
        .with_clients(clients)
        .with_duration(duration);
}

// --- selection & parsing -----------------------------------------------

TEST(PowerPolicySelectionTest, ParseRoundTripsEveryName) {
    const policy::PolicyKind kinds[] = {
        policy::PolicyKind::cam, policy::PolicyKind::psm, policy::PolicyKind::ecmac,
        policy::PolicyKind::micro_nap, policy::PolicyKind::pamas};
    for (const auto kind : kinds) {
        EXPECT_EQ(policy::parse_power_policy(policy::to_string(kind)), kind);
    }
    // CLI-friendly aliases.
    EXPECT_EQ(policy::parse_power_policy("micro-nap"), policy::PolicyKind::micro_nap);
    EXPECT_EQ(policy::parse_power_policy("ec-mac"), policy::PolicyKind::ecmac);
}

TEST(PowerPolicySelectionTest, ParseRejectsUnknownNameListingValidOnes) {
    try {
        (void)policy::parse_power_policy("warp-core");
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("warp-core"), std::string::npos);
        EXPECT_NE(what.find("micro_nap"), std::string::npos);
        EXPECT_NE(what.find("pamas"), std::string::npos);
    }
}

TEST(PowerPolicySelectionTest, LabelsFollowTheSelectedKind) {
    using policy::PolicyKind;
    using policy::PowerPolicyConfig;
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::cam)).label(), "wlan-cam");
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::psm)).label(), "wlan-psm");
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::ecmac)).label(), "ec-mac");
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap)).label(),
              "micro-nap");
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::pamas)).label(), "pamas");
}

TEST(PowerPolicySelectionTest, PowerPolicyRidesTheCamBaseOnly) {
    const auto spec = core::ScenarioSpec::psm().with_power_policy(
        policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap));
    EXPECT_THROW(spec.validate(), ContractViolation);
}

// --- μNap break-even math ----------------------------------------------

TEST(MicroNapTest, BreakEvenGapMatchesNapCostTable) {
    sim::Simulator sim;
    phy::WlanNicConfig config;
    phy::WlanNic nic(sim, config);
    policy::MicroNapPolicy policy;
    policy.attach(sim, nic);

    // g* = max(round_trip + 2·guard,
    //          (E_trans − P_nap·t_trans) / (P_idle − P_nap))
    const phy::NapCostTable nap = config.nap;
    const double energy_term =
        (nap.round_trip_energy().joules() -
         config.doze.watts() * nap.round_trip().to_seconds()) /
        (config.idle.watts() - config.doze.watts());
    const Time fit_floor =
        nap.round_trip() + Time::from_us(20) + Time::from_us(20);
    const Time expected = std::max(fit_floor, Time::from_seconds(energy_term));
    EXPECT_EQ(policy.break_even_gap(), expected);

    // The default table must leave an MP3 exchange's NAV span (~780 µs)
    // worth napping through, or the whole policy is a no-op.
    EXPECT_LT(policy.break_even_gap(), Time::from_us(780));
}

TEST(MicroNapTest, AttachRejectsVulnerableWakeMargin) {
    sim::Simulator sim;
    phy::WlanNicConfig config;
    config.nap.wake_latency = Time::from_us(4);  // + 10µs guard < one 20µs slot
    phy::WlanNic nic(sim, config);
    policy::MicroNapConfig mc;
    mc.guard = Time::from_us(10);
    policy::MicroNapPolicy policy(mc);
    EXPECT_THROW(policy.attach(sim, nic), ContractViolation);
}

// --- μNap end-to-end: idle_listen -> nav_sleep reallocation -------------

TEST(MicroNapTest, ReallocatesIdleListenIntoNavSleep) {
    const Time duration = Time::from_seconds(15);

    obs::EnergyLedger cam_ledger;
    core::ScenarioResult cam;
    {
        obs::ScopedEnergyLedger scope(cam_ledger);
        cam = backend.run(
            policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::cam), 2,
                        duration),
            42);
    }

    obs::EnergyLedger nap_ledger;
    core::ScenarioResult nap;
    {
        obs::ScopedEnergyLedger scope(nap_ledger);
        nap = backend.run(
            policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap), 2,
                        duration),
            42);
    }

    // Sleep energy appears, idle listening shrinks, and the total drops —
    // all without costing playout QoS.
    EXPECT_GT(nap_ledger.cause_total(obs::EnergyCause::nav_sleep), 0.0);
    EXPECT_LT(nap_ledger.cause_total(obs::EnergyCause::idle_listen),
              cam_ledger.cause_total(obs::EnergyCause::idle_listen));
    EXPECT_LT(nap.mean_wnic().watts(), cam.mean_wnic().watts());
    EXPECT_GE(nap.min_qos(), 0.99);
    EXPECT_GT(nap.clients.size(), 0u);
    for (const auto& client : nap.clients) {
        EXPECT_GT(client.received.bytes(), 0);
    }
}

TEST(PolicyLedgerTest, ReconcilesAgainstAggregateNicEnergy) {
    const policy::PolicyKind kinds[] = {policy::PolicyKind::micro_nap,
                                        policy::PolicyKind::pamas};
    for (const auto kind : kinds) {
        obs::EnergyLedger ledger;
        double aggregate_j = 0.0;
        {
            obs::ScopedEnergyLedger scope(ledger);
            const auto result = backend.run(
                policy_spec(policy::PowerPolicyConfig::of(kind), 2,
                            Time::from_seconds(10)),
                42);
            for (const auto& client : result.clients) {
                aggregate_j += client.wnic_energy.joules();
            }
        }
        EXPECT_LT(std::fabs(ledger.total() - aggregate_j), 1e-9)
            << "policy " << policy::to_string(kind);
    }
}

// --- μNap world diagnostics (naps fire, uplink exercises backoff) -------

TEST(MicroNapTest, WorldCountsNapsAndServesUplink) {
    sim::Simulator sim;
    const int clients = 2;
    core::BssWorld world(
        sim,
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap)
                        .with_uplink(Time::from_ms(200), DataSize::from_bytes(200)),
                    clients),
        7, nullptr);
    world.start();
    sim.run_until(Time::from_seconds(10));
    (void)world.finish();

    for (int i = 0; i < clients; ++i) {
        policy::PolicyStation& station = world.policy_station(i);
        auto& policy = dynamic_cast<policy::MicroNapPolicy&>(station.policy());
        EXPECT_GT(policy.naps(), 0u) << "station " << i;
        EXPECT_GT(policy.napped(), Time::zero()) << "station " << i;
        EXPECT_FALSE(policy.napping()) << "station " << i;
        EXPECT_GT(station.frames_received(), 0u) << "station " << i;
        EXPECT_GT(station.bytes_sent().bytes(), 0) << "station " << i;
        EXPECT_EQ(station.battery(), nullptr);  // listen-mode: no pack
    }
}

// --- PAMAS: battery-driven stretch --------------------------------------

TEST(PamasTest, StretchFollowsThresholdTable) {
    policy::PamasPolicy policy{policy::PamasPolicyConfig{}};
    const Time base = policy.config().base_period;

    EXPECT_DOUBLE_EQ(policy.current_stretch(), 1.0);  // full battery
    EXPECT_EQ(policy.sleep_quantum(), base);

    policy.on_battery_level(0.6);
    EXPECT_DOUBLE_EQ(policy.current_stretch(), 2.0);
    policy.on_battery_level(0.3);
    EXPECT_DOUBLE_EQ(policy.current_stretch(), 4.0);
    policy.on_battery_level(0.1);
    EXPECT_DOUBLE_EQ(policy.current_stretch(), 8.0);
    EXPECT_EQ(policy.sleep_quantum(),
              Time::from_seconds(base.to_seconds() * 8.0));
}

TEST(PamasTest, ConfigValidateRejectsMalformedTables) {
    policy::PamasPolicyConfig ascending;
    ascending.thresholds = {{0.25, 4.0}, {0.75, 1.0}, {0.0, 8.0}};
    EXPECT_THROW(ascending.validate(), ContractViolation);

    policy::PamasPolicyConfig shrink;
    shrink.thresholds = {{0.75, 4.0}, {0.50, 2.0}, {0.0, 8.0}};  // stretch drops
    EXPECT_THROW(shrink.validate(), ContractViolation);

    policy::PamasPolicyConfig uncovered;
    uncovered.thresholds = {{0.75, 1.0}, {0.50, 2.0}};  // no level-0 row
    EXPECT_THROW(uncovered.validate(), ContractViolation);

    policy::PamasPolicyConfig sub_unity;
    sub_unity.thresholds = {{0.5, 0.5}, {0.0, 8.0}};
    EXPECT_THROW(sub_unity.validate(), ContractViolation);
}

TEST(PamasTest, WorldDrainsBatteryWhileDutyCycling) {
    sim::Simulator sim;
    core::BssWorld world(
        sim, policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::pamas), 1), 11,
        nullptr);
    world.start();
    sim.run_until(Time::from_seconds(20));
    (void)world.finish();

    auto& station = world.policy_station(0);
    ASSERT_NE(station.battery(), nullptr);
    EXPECT_LT(station.battery()->level(), 1.0);
    EXPECT_GT(station.cycles(), 0u);
    EXPECT_GT(station.frames_received(), 0u);
    // Duty cycling must beat always-on listening on average power.
    EXPECT_LT(station.average_power().watts(), cal::kWlanIdle.watts());
}

// --- PAMAS station against a buffering AP -------------------------------

mac::AccessPointConfig ap_config(mac::ApMode mode) {
    mac::AccessPointConfig c;
    c.mode = mode;
    return c;
}

/// One PolicyStation driven by PamasPolicy, with a \p capacity pack and no
/// rate-capacity effect, against a PSM-mode (buffering) AP.
struct PamasBssWorld {
    sim::Simulator sim;
    sim::Random root{5};
    mac::Bss bss{sim};
    mac::AccessPoint ap{sim, bss, ap_config(mac::ApMode::psm), mac::DcfConfig{}, root.fork(1)};
    policy::PowerPolicyConfig config;
    policy::PamasPolicy pamas;
    policy::PolicyStation station;

    explicit PamasBssWorld(power::Energy capacity = power::Energy::from_joules(200.0))
        : config([capacity] {
              auto c = policy::PowerPolicyConfig::of(policy::PolicyKind::pamas);
              c.pamas.battery.capacity = capacity;
              c.pamas.battery.rate_exponent = 0.0;
              return c;
          }()),
          pamas(config.pamas),
          station(sim, bss, ap, 1, pamas, config, mac::DcfConfig{}, phy::WlanNicConfig{},
                  root.fork(2)) {
        ap.start();
        station.start();
    }

    /// Poisson downlink of \p frame bytes at \p rate, on its own fork.
    traffic::PoissonSource downlink(DataSize frame, Rate rate, std::uint64_t fork) {
        return traffic::PoissonSource(sim, [this](DataSize s) { ap.send(1, s); }, frame, rate,
                                      root.fork(fork));
    }
};

TEST(PamasPolicyStationTest, RequiresBufferingAp) {
    sim::Simulator sim;
    sim::Random root(5);
    mac::Bss bss(sim);
    mac::AccessPoint ap(sim, bss, ap_config(mac::ApMode::cam), mac::DcfConfig{}, root.fork(1));
    const auto config = policy::PowerPolicyConfig::of(policy::PolicyKind::pamas);
    policy::PamasPolicy pamas(config.pamas);
    EXPECT_THROW(policy::PolicyStation(sim, bss, ap, 1, pamas, config, mac::DcfConfig{},
                                       phy::WlanNicConfig{}, root.fork(2)),
                 ContractViolation);
}

TEST(PamasPolicyStationTest, ReceivesBufferedTraffic) {
    PamasBssWorld w;
    DataSize sent;
    traffic::PoissonSource src(
        w.sim,
        [&](DataSize s) {
            sent += s;
            w.ap.send(1, s);
        },
        DataSize::from_bytes(1000), Rate::from_kbps(64), w.root.fork(3));
    src.start();
    w.sim.run_until(Time::from_seconds(30));
    src.stop();
    w.sim.run_until(Time::from_seconds(32));
    EXPECT_GT(sent.bytes(), 0);
    // Nearly all bytes arrive (buffered, then flushed on wake; the flush
    // aggregates several MSDUs per MPDU, so compare bytes).
    EXPECT_GE(w.station.bytes_received().bytes(), sent.bytes() * 9 / 10);
}

TEST(PamasPolicyStationTest, SleepsWhenIdle) {
    PamasBssWorld w;
    w.sim.run_until(Time::from_seconds(20));
    // No traffic at all: the radio stays in doze, power ~ doze level.
    EXPECT_LT(w.station.average_power().watts(), 0.06);
}

TEST(PamasPolicyStationTest, PeriodStretchesAsBatteryDrains) {
    PamasBssWorld w(power::Energy::from_joules(20.0));  // small pack
    auto src = w.downlink(DataSize::from_bytes(1400), Rate::from_kbps(128), 3);
    src.start();
    const Time initial_period = w.pamas.sleep_quantum();
    w.sim.run_until(Time::from_seconds(120));
    EXPECT_LT(w.station.battery()->level(), 0.75);
    EXPECT_GT(w.pamas.sleep_quantum(), initial_period);
}

TEST(PamasPolicyStationTest, DeadBatteryStopsTheRadio) {
    PamasBssWorld w(power::Energy::from_joules(3.0));  // dies almost immediately
    auto src = w.downlink(DataSize::from_bytes(1400), Rate::from_kbps(256), 3);
    src.start();
    w.sim.run_until(Time::from_seconds(300));
    EXPECT_TRUE(w.station.battery()->empty());
    // Frames stop flowing once dead: the buffer grows at the AP.
    EXPECT_GT(w.ap.buffered(1), 100u);
}

TEST(PamasPolicyStationTest, LatencyReflectsSleepCycle) {
    PamasBssWorld w;
    auto src = w.downlink(DataSize::from_bytes(1000), Rate::from_kbps(32), 4);
    src.start();
    w.sim.run_until(Time::from_seconds(60));
    ASSERT_GT(w.station.delivery_latency().count(), 10u);
    // Mean latency is of the order of half the base cycle period (250 ms).
    EXPECT_GT(w.station.delivery_latency().mean(), 0.05);
    EXPECT_LT(w.station.delivery_latency().mean(), 1.0);
}

// --- alias kinds are the native scenarios --------------------------------

TEST(PolicyAdapterTest, AliasKindsRewriteIntoTheNativeSpec) {
    using policy::PolicyKind;
    using policy::PowerPolicyConfig;
    const auto psm = policy_spec(PowerPolicyConfig::of(PolicyKind::psm));
    EXPECT_EQ(psm.policy(), core::Policy::psm);
    EXPECT_FALSE(psm.has_power_policy());
    EXPECT_EQ(psm.describe(),
              core::ScenarioSpec::psm().with_clients(2).with_duration(Time::from_seconds(15))
                  .describe());
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::ecmac)).policy(),
              core::Policy::ecmac);
    EXPECT_EQ(policy_spec(PowerPolicyConfig::of(PolicyKind::cam)).describe(),
              core::ScenarioSpec::cam().with_clients(2).with_duration(Time::from_seconds(15))
                  .describe());
    // The psm alias carries the config's beacon interval into PsmConfig.
    auto slow = PowerPolicyConfig::of(PolicyKind::psm);
    slow.beacon_interval = Time::from_ms(200);
    EXPECT_EQ(policy_spec(slow).psm_config().beacon_interval, Time::from_ms(200));
}


TEST(PolicyAdapterTest, PsmAdapterIsBitIdenticalToNativePsm) {
    const Time duration = Time::from_seconds(10);
    const auto native = backend.run(
        core::ScenarioSpec::psm().with_clients(2).with_duration(duration), 42);
    const auto adapted = backend.run(
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::psm), 2,
                    duration),
        42);

    EXPECT_EQ(adapted.label, native.label);
    ASSERT_EQ(adapted.clients.size(), native.clients.size());
    for (std::size_t i = 0; i < native.clients.size(); ++i) {
        EXPECT_DOUBLE_EQ(adapted.clients[i].wnic_energy.joules(),
                         native.clients[i].wnic_energy.joules());
        EXPECT_DOUBLE_EQ(adapted.clients[i].qos, native.clients[i].qos);
    }
}

TEST(PolicyAdapterTest, CamAdapterIsBitIdenticalToPlainCam) {
    const Time duration = Time::from_seconds(10);
    const auto native = backend.run(
        core::ScenarioSpec::cam().with_clients(2).with_duration(duration), 42);
    const auto adapted = backend.run(
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::cam), 2,
                    duration),
        42);

    EXPECT_EQ(adapted.label, native.label);
    ASSERT_EQ(adapted.clients.size(), native.clients.size());
    for (std::size_t i = 0; i < native.clients.size(); ++i) {
        EXPECT_DOUBLE_EQ(adapted.clients[i].wnic_energy.joules(),
                         native.clients[i].wnic_energy.joules());
    }
}

// --- validate(): alias kinds have no uplink workload --------------------

TEST(PolicyValidateTest, RefusesUplinkOnAliasKinds) {
    using policy::PolicyKind;
    using policy::PowerPolicyConfig;
    for (const auto kind : {PolicyKind::cam, PolicyKind::psm, PolicyKind::ecmac}) {
        try {
            policy_spec(PowerPolicyConfig::of(kind).with_uplink(Time::from_ms(100),
                                                                DataSize::from_bytes(200)))
                .validate();
            FAIL() << "expected ContractViolation for " << policy::to_string(kind);
        } catch (const ContractViolation& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("uplink"), std::string::npos) << what;
            EXPECT_NE(what.find("micro_nap"), std::string::npos) << what;
        }
    }
    EXPECT_NO_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap)
                                    .with_uplink(Time::from_ms(100), DataSize::from_bytes(200)))
                        .validate());
}

// --- validate(): beacon interval floor ----------------------------------

TEST(PolicyValidateTest, RejectsBeaconIntervalBelowOneTimeUnit) {
    using policy::PolicyKind;
    for (const auto kind : {PolicyKind::psm, PolicyKind::pamas}) {
        auto power = policy::PowerPolicyConfig::of(kind);
        power.beacon_interval = Time::from_ns(100);
        EXPECT_THROW(policy_spec(power).validate(), ContractViolation)
            << policy::to_string(kind);
        power.beacon_interval = cal::kWlanTimeUnit;
        EXPECT_NO_THROW(policy_spec(power).validate()) << policy::to_string(kind);
    }
}

// --- validate(): μNap transition-cost guard -------------------------------

TEST(PolicyValidateTest, RejectsNapTableThatCannotAmortizeInsideABeacon) {
    auto spec =
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap));
    core::StreamConfig stream = spec.stream();
    stream.wlan_nic.nap.sleep_latency = Time::from_ms(60);
    stream.wlan_nic.nap.wake_latency = Time::from_ms(50);  // 110ms > 102.4ms beacon
    spec.with_stream(stream);
    try {
        spec.validate();
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("beacon interval"), std::string::npos);
        EXPECT_NE(what.find("nap cost table"), std::string::npos);
    }
}

TEST(PolicyValidateTest, RejectsFreeNapTransitions) {
    auto spec =
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap));
    core::StreamConfig stream = spec.stream();
    stream.wlan_nic.nap.sleep_latency = Time::zero();
    spec.with_stream(stream);
    EXPECT_THROW(spec.validate(), ContractViolation);
}

// --- per-policy fault whitelists ----------------------------------------

TEST(PolicyFaultTest, WhitelistsFollowEachPolicysDependencies) {
    using policy::PolicyKind;
    using policy::PowerPolicyConfig;

    // μNap has no PS-Poll dependence: poll_drop is meaningless there.
    fault::FaultPlan polls;
    polls.poll_drop(Time::from_seconds(1), Time::from_seconds(2), 0.5);
    EXPECT_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap))
                     .with_fault_plan(polls)
                     .validate(),
                 ContractViolation);

    // wake_stuck can stretch a backoff-nap resume past the DCF fire: only
    // injectable once backoff naps are off.
    fault::FaultPlan stuck;
    stuck.wake_stuck(Time::from_seconds(1), Time::from_ms(1));
    EXPECT_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap))
                     .with_fault_plan(stuck)
                     .validate(),
                 ContractViolation);
    policy::MicroNapConfig nav_only;
    nav_only.nap_on_backoff = false;
    EXPECT_NO_THROW(
        policy_spec(PowerPolicyConfig::of(PolicyKind::micro_nap).with_micro_nap(nav_only))
            .with_fault_plan(stuck)
            .validate());

    // PAMAS duty-cycles on its own clock; wake_stuck merely delays a cycle.
    EXPECT_NO_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::pamas))
                        .with_fault_plan(stuck)
                        .validate());

    // The EC-MAC world has no injector wiring at all.
    fault::FaultPlan corrupt;
    corrupt.corruption(Time::from_seconds(1), Time::from_seconds(2), 0.25);
    EXPECT_THROW(policy_spec(PowerPolicyConfig::of(PolicyKind::ecmac))
                     .with_fault_plan(corrupt)
                     .validate(),
                 ContractViolation);
}

TEST(PolicyFaultTest, FaultedMicroNapRunInjectsAndKeepsStreaming) {
    fault::FaultPlan plan;
    plan.corruption(Time::from_seconds(3), Time::from_seconds(4), 0.4);
    const auto result = backend.run(
        policy_spec(policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap), 2,
                    Time::from_seconds(12))
            .with_fault_plan(plan),
        42);
    EXPECT_GT(result.faults_injected, 0u);
    for (const auto& client : result.clients) {
        EXPECT_GT(client.received.bytes(), 0);
    }
}

}  // namespace
}  // namespace wlanps
