/// Analytic-backend tests: closed-form building blocks against
/// hand-computed fixtures, model monotonicities, the Backend contract
/// (seed-invariance, unsupported-spec rejection, result shape), spec
/// validation, and the sim <-> analytic cross-validation bands that
/// license using the closed form to screen experiment grids.

#include <gtest/gtest.h>

#include <cmath>

#include "analytic/backend.hpp"
#include "analytic/model.hpp"
#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "phy/calibration.hpp"
#include "policy/policy.hpp"
#include "sim/assert.hpp"

namespace wlanps::analytic {
namespace {

namespace cal = phy::calibration;

const AnalyticBackend analytic;
const core::SimBackend sim;

double rel_err(double model, double truth) { return (model - truth) / truth; }

core::StreamConfig stream(int clients, double seconds) {
    core::StreamConfig config;
    config.clients = clients;
    config.duration = Time::from_seconds(seconds);
    return config;
}

// ---- link-layer building blocks ---------------------------------------------------

TEST(AnalyticLinkTest, BadStateFractionMatchesStationaryDistribution) {
    GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    EXPECT_NEAR(bad_state_fraction(link), 40.0 / 840.0, 1e-12);
    EXPECT_NEAR(bad_state_fraction(link), 1.0 - link.stationary_good(), 1e-12);
}

TEST(AnalyticLinkTest, FrameErrorProbZeroOnPerfectLink) {
    GilbertElliottConfig perfect{Time::from_ms(800), Time::from_ms(40), 0.0, 0.0};
    EXPECT_DOUBLE_EQ(frame_error_prob(perfect, DataSize::from_bytes(1500)), 0.0);
}

TEST(AnalyticLinkTest, FrameErrorProbHandComputed) {
    // Single-state channel (ber identical in both states): the mixture
    // collapses to 1 - (1-ber)^bits.
    GilbertElliottConfig flat{Time::from_ms(800), Time::from_ms(40), 1e-5, 1e-5};
    const DataSize frame = DataSize::from_bytes(100);
    const double expected = 1.0 - std::pow(1.0 - 1e-5, 800.0);
    EXPECT_NEAR(frame_error_prob(flat, frame), expected, 1e-12);
}

TEST(AnalyticLinkTest, FrameErrorProbGrowsWithFrameSize) {
    GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    EXPECT_LT(frame_error_prob(link, DataSize::from_bytes(100)),
              frame_error_prob(link, DataSize::from_bytes(1500)));
}

TEST(AnalyticLinkTest, ExpectedAttemptsHandComputed) {
    EXPECT_DOUBLE_EQ(expected_attempts(0.0, 7), 1.0);
    // (1 - 0.5^3) / (1 - 0.5) = 1.75
    EXPECT_NEAR(expected_attempts(0.5, 3), 1.75, 1e-12);
    // Attempts grow with the error probability.
    EXPECT_GT(expected_attempts(0.2, 7), expected_attempts(0.1, 7));
}

TEST(AnalyticLinkTest, DcfAccessTimeIsDifsPlusMeanBackoff) {
    const Time expected =
        cal::kWlanDifs + cal::kWlanSlot * (static_cast<double>(cal::kWlanCwMin) / 2.0);
    EXPECT_NEAR(dcf_access_time().to_seconds(), expected.to_seconds(), 1e-12);
}

TEST(AnalyticLinkTest, FrameAirtimeHandComputed) {
    // 418 B MP3 frame + 34 B MAC header at 11 Mb/s, plus the PLCP overhead.
    const DataSize payload = cal::kMp3FrameSize;
    const Time expected =
        cal::kWlanPlcpOverhead + cal::kWlanRate11.transmit_time(payload + cal::kWlanMacHeader);
    EXPECT_NEAR(wlan_frame_airtime(payload, cal::kWlanRate11).to_seconds(),
                expected.to_seconds(), 1e-12);
}

TEST(AnalyticLinkTest, AckAirtimeHandComputed) {
    const Time expected = cal::kWlanPlcpOverhead + cal::kWlanRate2.transmit_time(cal::kWlanAckFrame);
    EXPECT_NEAR(wlan_ack_airtime().to_seconds(), expected.to_seconds(), 1e-12);
}

// ---- model shapes ------------------------------------------------------------------

TEST(AnalyticModelTest, CamSitsJustAboveIdleFloor) {
    const phy::WlanNicConfig nic;
    const GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    const auto p = cam_station_power(nic, link);
    // Mostly idle listening, with small rx/tx excursions for the stream.
    EXPECT_GT(p.watts(), nic.idle.watts());
    EXPECT_LT(p.watts(), nic.idle.watts() * 1.05);
}

TEST(AnalyticModelTest, PsmPowerFallsWithListenInterval) {
    const phy::WlanNicConfig nic;
    const GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    PsmModelParams every;
    every.listen_interval = 1;
    PsmModelParams third;
    third.listen_interval = 3;
    EXPECT_LE(psm_station_power(third, nic, link).watts(),
              psm_station_power(every, nic, link).watts() * 1.001);
}

TEST(AnalyticModelTest, PsmPowerGrowsWithContendingStations) {
    const phy::WlanNicConfig nic;
    const GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    PsmModelParams one;
    one.stations = 1;
    PsmModelParams eight;
    eight.stations = 8;
    EXPECT_GT(psm_station_power(eight, nic, link).watts(),
              psm_station_power(one, nic, link).watts());
}

TEST(AnalyticModelTest, PsmAggregationSavesEnergy) {
    const phy::WlanNicConfig nic;
    const GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    PsmModelParams plain;
    PsmModelParams agg;
    agg.aggregate_limit = 8;
    EXPECT_LT(psm_station_power(agg, nic, link).watts(),
              psm_station_power(plain, nic, link).watts());
}

TEST(AnalyticModelTest, PsmSaturationClampsToAlwaysAwake) {
    const phy::WlanNicConfig nic;
    const GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    PsmModelParams jammed;
    jammed.stations = 500;  // cycles cannot fit 500 stations' retrievals
    const auto p = psm_station_power(jammed, nic, link);
    // The clamp caps at the awake mixture: never above rx, never below idle.
    EXPECT_GE(p.watts(), nic.idle.watts() * 0.99);
    EXPECT_LE(p.watts(), nic.rx.watts());
}

TEST(AnalyticModelTest, PsmSaturationThroughputFallsWithStations) {
    const phy::WlanNicConfig nic;
    const Rate t1 = psm_saturation_throughput(1, nic);
    const Rate t4 = psm_saturation_throughput(4, nic);
    const Rate t16 = psm_saturation_throughput(16, nic);
    EXPECT_GT(t1.bps(), t4.bps());
    EXPECT_GT(t4.bps(), t16.bps());
    // Goodput can never exceed the PHY rate.
    EXPECT_LT(t1.bps(), nic.phy_rate.bps());
}

TEST(AnalyticModelTest, BtActiveBetweenParkAndActiveFloor) {
    const phy::BtNicConfig nic;
    const GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    const auto p = bt_active_power(nic, link);
    // An always-active slave pays at least the active floor, plus rx/tx
    // excursions — but stays below the all-rx ceiling.
    EXPECT_GT(p.watts(), nic.active.watts());
    EXPECT_LT(p.watts(), nic.rx.watts());
}

TEST(AnalyticModelTest, HotspotPrefersBluetoothWhenAvailable) {
    const phy::WlanNicConfig wlan;
    const phy::BtNicConfig bt;
    const GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    HotspotModelParams both;
    HotspotModelParams wlan_only;
    wlan_only.bt_available = false;
    const auto p_bt = hotspot_client_power(both, wlan, bt, link, link);
    const auto p_wlan = hotspot_client_power(wlan_only, wlan, bt, link, link);
    EXPECT_LT(p_bt.watts(), p_wlan.watts());
    // Either way the scheduled client is far below an always-on WLAN NIC.
    EXPECT_LT(p_wlan.watts(), wlan.idle.watts() / 2.0);
}

TEST(AnalyticModelTest, HotspotBiggerBurstsCostLessOverhead) {
    const phy::WlanNicConfig wlan;
    const phy::BtNicConfig bt;
    const GilbertElliottConfig link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    HotspotModelParams small;
    small.target_burst = DataSize::from_kilobytes(16);
    HotspotModelParams big;
    big.target_burst = DataSize::from_kilobytes(96);
    // Fewer wake transitions per byte: bigger bursts can't cost more.
    EXPECT_LE(hotspot_client_power(big, wlan, bt, link, link).watts(),
              hotspot_client_power(small, wlan, bt, link, link).watts() * 1.001);
}

// ---- the Backend contract ----------------------------------------------------------

TEST(AnalyticBackendTest, MakeBackendResolvesBothEngines) {
    EXPECT_EQ(make_backend("sim")->name(), "sim");
    EXPECT_EQ(make_backend("analytic")->name(), "analytic");
}

TEST(AnalyticBackendTest, MakeBackendRejectsUnknownName) {
    EXPECT_THROW((void)make_backend("bogus"), ContractViolation);
}

TEST(AnalyticBackendTest, SeedInvariantForEveryPolicy) {
    for (auto spec :
         {core::ScenarioSpec::cam(), core::ScenarioSpec::psm(), core::ScenarioSpec::bt(),
          core::ScenarioSpec::hotspot()}) {
        spec.with_stream(stream(2, 60));
        const auto a = analytic.run(spec, 1);
        const auto b = analytic.run(spec, 999);
        ASSERT_EQ(a.clients.size(), b.clients.size()) << a.label;
        for (std::size_t i = 0; i < a.clients.size(); ++i) {
            EXPECT_EQ(a.clients[i].wnic_average.watts(), b.clients[i].wnic_average.watts())
                << a.label;
        }
    }
}

TEST(AnalyticBackendTest, AllClientsIdenticalByConstruction) {
    const auto result = analytic.run(core::ScenarioSpec::psm().with_stream(stream(4, 60)));
    ASSERT_EQ(result.clients.size(), 4u);
    for (const auto& c : result.clients) {
        EXPECT_EQ(c.wnic_average.watts(), result.clients[0].wnic_average.watts());
    }
}

TEST(AnalyticBackendTest, ResultShapeMatchesSpec) {
    const auto config = stream(3, 120);
    const auto result = analytic.run(core::ScenarioSpec::hotspot().with_stream(config));
    EXPECT_EQ(result.label, "hotspot-edf");
    ASSERT_EQ(result.clients.size(), 3u);
    const auto& c = result.clients.front();
    EXPECT_DOUBLE_EQ(c.qos, 1.0);
    EXPECT_EQ(c.underruns, 0u);
    // Energy integrates the mean power over the run.
    EXPECT_NEAR(c.wnic_energy.joules(),
                c.wnic_average.over(config.duration).joules(), 1e-9);
    // Device power adds the platform base.
    EXPECT_NEAR(c.device_average.watts(),
                c.wnic_average.watts() + cal::kIpaqBase.watts(), 1e-9);
    // The steady-state model delivers the full stream.
    EXPECT_EQ(c.received, cal::kMp3Rate.data_in(config.duration));
}

TEST(AnalyticBackendTest, RejectsEcmacWithActionableReason) {
    const auto spec = core::ScenarioSpec::ecmac().with_stream(stream(2, 60));
    EXPECT_FALSE(analytic.unsupported_reason(spec).empty());
    EXPECT_THROW((void)analytic.run(spec), ContractViolation);
}

TEST(AnalyticBackendTest, RejectsMixedWorkloads) {
    const auto spec = core::ScenarioSpec::hotspot_mixed().with_stream(stream(2, 60));
    EXPECT_NE(analytic.unsupported_reason(spec).find("sim backend"), std::string::npos);
    EXPECT_THROW((void)analytic.run(spec), ContractViolation);
}

TEST(AnalyticBackendTest, RejectsFaultPlans) {
    auto config = stream(2, 60);
    config.fault_plan.beacon_loss(Time::from_seconds(10), Time::from_seconds(5));
    const auto spec = core::ScenarioSpec::psm().with_stream(config);
    EXPECT_FALSE(analytic.unsupported_reason(spec).empty());
    EXPECT_THROW((void)analytic.run(spec), ContractViolation);
}

TEST(AnalyticBackendTest, RejectsSimOnlyHotspotCallbacks) {
    core::HotspotConfig options;
    options.inspect = [](sim::Simulator&, core::HotspotServer&,
                         std::vector<core::HotspotClient*>&) {};
    const auto spec =
        core::ScenarioSpec::hotspot().with_stream(stream(2, 60)).with_hotspot(options);
    EXPECT_FALSE(analytic.unsupported_reason(spec).empty());
    EXPECT_THROW((void)analytic.run(spec), ContractViolation);
}

TEST(AnalyticBackendTest, SupportedSpecsReportNoReason) {
    for (auto spec :
         {core::ScenarioSpec::cam(), core::ScenarioSpec::psm(), core::ScenarioSpec::bt(),
          core::ScenarioSpec::hotspot()}) {
        spec.with_stream(stream(2, 60));
        EXPECT_EQ(analytic.unsupported_reason(spec), "") << spec.label();
    }
}

TEST(AnalyticBackendTest, RejectsEventDrivenPowerPoliciesByName) {
    // The refusal must name the offending policy and point at the sim
    // backend, so a user sweeping --policy knows exactly what to change.
    const struct {
        policy::PolicyKind kind;
        const char* name;
    } refused[] = {{policy::PolicyKind::micro_nap, "micro_nap"},
                   {policy::PolicyKind::pamas, "pamas"},
                   {policy::PolicyKind::ecmac, "EC-MAC"}};
    for (const auto& [kind, name] : refused) {
        const auto spec = core::ScenarioSpec::cam()
                              .with_stream(stream(2, 60))
                              .with_power_policy(policy::PowerPolicyConfig::of(kind));
        const std::string reason = analytic.unsupported_reason(spec);
        EXPECT_NE(reason.find(name), std::string::npos) << reason;
        EXPECT_NE(reason.find("sim backend"), std::string::npos) << reason;
        EXPECT_THROW((void)analytic.run(spec), ContractViolation);
    }
}

TEST(AnalyticBackendTest, AdapterPowerPoliciesMapOntoClosedForms) {
    for (const auto kind : {policy::PolicyKind::cam, policy::PolicyKind::psm}) {
        const auto spec = core::ScenarioSpec::cam()
                              .with_stream(stream(2, 60))
                              .with_power_policy(policy::PowerPolicyConfig::of(kind));
        EXPECT_EQ(analytic.unsupported_reason(spec), "") << spec.label();
        const auto result = analytic.run(spec);
        ASSERT_EQ(result.clients.size(), 2u);
        EXPECT_GT(result.clients.front().wnic_average.watts(), 0.0);
    }
    // The psm alias's closed form must agree with the native psm spec.
    const auto native = analytic.run(core::ScenarioSpec::psm().with_stream(stream(2, 60)));
    const auto adapted = analytic.run(
        core::ScenarioSpec::cam().with_stream(stream(2, 60)).with_power_policy(
            policy::PowerPolicyConfig::of(policy::PolicyKind::psm)));
    EXPECT_DOUBLE_EQ(adapted.clients.front().wnic_average.watts(),
                     native.clients.front().wnic_average.watts());
}

// ---- ScenarioSpec validation -------------------------------------------------------

TEST(ScenarioSpecValidation, RejectsZeroDuration) {
    EXPECT_THROW((void)analytic.run(core::ScenarioSpec::cam().with_stream(stream(1, 0))),
                 ContractViolation);
}

TEST(ScenarioSpecValidation, RejectsSubConfigOnWrongPolicy) {
    core::PsmConfig psm_options;
    EXPECT_THROW((void)core::ScenarioSpec::cam()
                     .with_stream(stream(1, 60))
                     .with_psm(psm_options)
                     .validate(),
                 ContractViolation);
}

TEST(ScenarioSpecValidation, RejectsBadPsmParameters) {
    core::PsmConfig bad;
    bad.listen_interval = 0;
    EXPECT_THROW((void)core::ScenarioSpec::psm()
                     .with_stream(stream(1, 60))
                     .with_psm(bad)
                     .validate(),
                 ContractViolation);
    // Beacon intervals are counted in 802.11 time units: below one TU a
    // run would only exhaust memory.
    const auto psm_with_beacon = [](Time beacon) {
        return core::ScenarioSpec::psm()
            .with_stream(stream(1, 60))
            .with_psm(core::PsmConfig{}.with_beacon_interval(beacon));
    };
    EXPECT_THROW(psm_with_beacon(Time::from_ns(100)).validate(), ContractViolation);
    EXPECT_NO_THROW(psm_with_beacon(cal::kWlanTimeUnit).validate());
}

TEST(ScenarioSpecValidation, RejectsNonPositiveHotspotSizesAndRates) {
    const auto hotspot_with = [](core::HotspotConfig options) {
        return core::ScenarioSpec::hotspot().with_stream(stream(1, 60)).with_hotspot(options);
    };
    // Negative, and positive but below the server's 4 KB minimum burst.
    for (const DataSize burst : {DataSize::from_kilobytes(-5), DataSize::from_bytes(1)}) {
        EXPECT_THROW(
            hotspot_with(core::HotspotConfig{}.with_target_burst(burst)).validate(),
            ContractViolation)
            << burst.str();
    }
    EXPECT_NO_THROW(
        hotspot_with(core::HotspotConfig{}.with_target_burst(DataSize::from_kilobytes(8)))
            .validate());
    // The proxy needs 0 < audio_rate < av_rate.
    const auto proxy_with = [&](double av_kbps, double audio_kbps) {
        core::MediaProxy::Config proxy;
        proxy.av_rate = Rate::from_kbps(av_kbps);
        proxy.audio_rate = Rate::from_kbps(audio_kbps);
        return hotspot_with(core::HotspotConfig{}.with_media_proxy(proxy));
    };
    EXPECT_THROW(proxy_with(-128, -256).validate(), ContractViolation);
    EXPECT_THROW(proxy_with(600, -128).validate(), ContractViolation);
    EXPECT_THROW(proxy_with(600, 600).validate(), ContractViolation);
    EXPECT_NO_THROW(proxy_with(600, 128).validate());
}

TEST(ScenarioSpecValidation, RejectsHotspotWithNoInterfaces) {
    core::HotspotConfig neither;
    neither.wlan_available = false;
    neither.bt_available = false;
    const auto spec =
        core::ScenarioSpec::hotspot().with_stream(stream(1, 60)).with_hotspot(neither);
    EXPECT_THROW((void)analytic.run(spec), ContractViolation);
    EXPECT_THROW((void)sim.run(spec), ContractViolation);
}

TEST(ScenarioSpecValidation, RejectsMoreClientsThanAPiconetHolds) {
    // A piconet holds 7 active slaves: 8 clients on one is refused up
    // front instead of failing inside the world build.
    EXPECT_THROW(core::ScenarioSpec::hotspot().with_stream(stream(8, 60)).validate(),
                 ContractViolation);
    EXPECT_THROW(core::ScenarioSpec::bt().with_stream(stream(8, 60)).validate(),
                 ContractViolation);
    EXPECT_NO_THROW(core::ScenarioSpec::bt().with_stream(stream(7, 60)).validate());
    // The fixes the refusal names: no BT, or one piconet per shard.
    EXPECT_NO_THROW(core::ScenarioSpec::hotspot()
                        .with_stream(stream(8, 60))
                        .with_hotspot(core::HotspotConfig{}.with_bt_available(false))
                        .validate());
    EXPECT_NO_THROW(core::ScenarioSpec::hotspot()
                        .with_stream(stream(8, 60))
                        .with_hotspot(core::HotspotConfig{}.with_sharding(
                            core::ShardingConfig{}.with_shards(2)))
                        .validate());
}

// ---- sim <-> analytic cross-validation ---------------------------------------------
//
// The license to screen grids analytically: on the Figure 2 workload the
// closed form must track the simulator within narrow bands.  Errors are
// per-client means, so the band is widest for small-N PSM (one station's
// realization scatters most) and tightens as N grows.

TEST(CrossValidationTest, CamAgreesAlmostExactly) {
    const auto config = stream(2, 120);
    const auto spec = core::ScenarioSpec::cam().with_stream(config);
    const double s = sim.run(spec).mean_wnic().watts();
    const double a = analytic.run(spec).mean_wnic().watts();
    EXPECT_LT(std::fabs(rel_err(a, s)), 0.005) << "sim " << s << " analytic " << a;
}

TEST(CrossValidationTest, BtActiveAgreesAlmostExactly) {
    const auto spec = core::ScenarioSpec::bt().with_stream(stream(2, 120));
    const double s = sim.run(spec).mean_wnic().watts();
    const double a = analytic.run(spec).mean_wnic().watts();
    EXPECT_LT(std::fabs(rel_err(a, s)), 0.01) << "sim " << s << " analytic " << a;
}

TEST(CrossValidationTest, HotspotAgreesWithinTwoPercent) {
    const auto spec = core::ScenarioSpec::hotspot().with_stream(stream(3, 120));
    const double s = sim.run(spec).mean_wnic().watts();
    const double a = analytic.run(spec).mean_wnic().watts();
    EXPECT_LT(std::fabs(rel_err(a, s)), 0.02) << "sim " << s << " analytic " << a;
}

class PsmAgreementSweep : public ::testing::TestWithParam<int> {};

TEST_P(PsmAgreementSweep, PsmAgreesAcrossStationCounts) {
    const int n = GetParam();
    // Two seeds knock down the single-realization scatter the closed form
    // cannot (and should not) reproduce.
    auto config = stream(n, 120);
    const auto spec = core::ScenarioSpec::psm().with_stream(config);
    const double s1 = sim.run(spec, 42).mean_wnic().watts();
    const double s2 = sim.run(spec, 43).mean_wnic().watts();
    const double s = 0.5 * (s1 + s2);
    const double a = analytic.run(spec).mean_wnic().watts();
    EXPECT_LT(std::fabs(rel_err(a, s)), 0.06)
        << "N=" << n << " sim " << s << " analytic " << a;
}

INSTANTIATE_TEST_SUITE_P(StationCounts, PsmAgreementSweep, ::testing::Values(1, 2, 4, 8));

TEST(CrossValidationTest, SavingPercentMatchesOnTheHeadlineClaim) {
    // The quantity the benches publish: CAM -> Hotspot WNIC saving.
    const auto config = stream(3, 120);
    auto saving = [&](const core::Backend& backend) {
        const double cam =
            backend.run(core::ScenarioSpec::cam().with_stream(config)).mean_wnic().watts();
        const double hs =
            backend.run(core::ScenarioSpec::hotspot().with_stream(config)).mean_wnic().watts();
        return 100.0 * (1.0 - hs / cam);
    };
    EXPECT_NEAR(saving(analytic), saving(sim), 1.0);  // within one point
}

}  // namespace
}  // namespace wlanps::analytic
