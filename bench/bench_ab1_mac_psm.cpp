/// \file bench_ab1_mac_psm.cpp
/// AB1 — MAC-layer power-saving techniques (paper §1, MAC layer).
///
/// Claims reproduced:
///  * WLANs "spend as much as 90% of their time listening" — shown by the
///    CAM station's idle residency.
///  * 802.11 PSM dozes whenever the TIM shows no traffic; longer listen
///    intervals trade latency for power.
///  * EC-MAC's centrally broadcast schedule removes PS-Poll contention and
///    gives exact doze windows (lower power than PSM).
///  * MAC-level aggregation creates longer sleep periods.
///  * PAMAS stations stretch their sleep as the battery drains (the
///    policy subsystem's PolicyStation driven by PamasPolicy's battery
///    threshold table).

#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "mac/access_point.hpp"
#include "mac/station.hpp"
#include "policy/pamas_policy.hpp"
#include "policy/station.hpp"
#include "traffic/source.hpp"

using namespace wlanps;
namespace bu = benchutil;

namespace {

void row(const std::string& label, power::Power wnic, double qos, const std::string& extra) {
    std::printf("%-34s %12s %8.2f%%  %s\n", label.c_str(), wnic.str().c_str(), 100.0 * qos,
                extra.c_str());
}

/// CAM listening-fraction demonstration (the "90% listening" claim).
void listening_fraction() {
    sim::Simulator sim;
    sim::Random root(7);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::cam;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(1));
    mac::StationConfig st_cfg;
    st_cfg.mode = mac::StationMode::cam;
    mac::WlanStation st(sim, bss, 1, st_cfg, mac::DcfConfig{}, phy::WlanNicConfig{},
                        root.fork(2));
    traffic::Mp3Source src(sim, [&ap](DataSize s) { ap.send(1, s); });
    ap.start();
    st.start(ap.config().beacon_interval, ap.config().beacon_interval);
    src.start();
    sim.run_until(Time::from_seconds(60));

    const Time total = Time::from_seconds(60);
    const double idle_frac = st.wlan_nic().residency(phy::WlanNic::State::idle) / total;
    const double rx_frac = st.wlan_nic().residency(phy::WlanNic::State::rx) / total;
    std::printf("CAM station time split while streaming MP3: idle-listen %.1f%%, rx %.1f%%\n",
                100.0 * idle_frac, 100.0 * rx_frac);
    bu::note("paper: WLANs spend as much as 90% of their time listening");
}

/// PAMAS: sleep period stretches as the battery drains.
void pamas_demo() {
    std::printf("\nPAMAS battery-driven sleep (cycle period vs battery level):\n");
    sim::Simulator sim;
    sim::Random root(11);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::psm;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(1));
    // The default PAMAS pack is small so the drain is visible within the run.
    const auto config = policy::PowerPolicyConfig::of(policy::PolicyKind::pamas);
    policy::PamasPolicy pamas(config.pamas);
    policy::PolicyStation st(sim, bss, ap, 1, pamas, config, mac::DcfConfig{},
                             phy::WlanNicConfig{}, root.fork(3));
    traffic::PoissonSource src(sim, [&ap](DataSize s) { ap.send(1, s); },
                               DataSize::from_bytes(1460), Rate::from_kbps(64), root.fork(2));
    ap.start();
    st.start();
    src.start();
    for (int checkpoint = 1; checkpoint <= 4; ++checkpoint) {
        sim.run_until(Time::from_seconds(checkpoint * 60));
        std::printf("  t=%3ds  battery %5.1f%%  cycle period %s  frames rx %llu\n",
                    checkpoint * 60, 100.0 * st.battery()->level(),
                    pamas.sleep_quantum().str().c_str(),
                    static_cast<unsigned long long>(st.frames_received()));
    }
    bu::note("expected shape: period grows as the battery level falls");
}

}  // namespace

int main() {
    bu::heading("AB1", "MAC-layer techniques: CAM / PSM / aggregation / EC-MAC / PAMAS");

    listening_fraction();

    const core::SimBackend backend;
    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(120);

    std::printf("\n%-34s %12s %9s  %s\n", "technique (3 MP3 clients)", "WNIC power", "QoS",
                "notes");
    const auto cam = backend.run(core::ScenarioSpec::cam().with_stream(config));
    row("cam (always listening)", cam.mean_wnic(), cam.min_qos(), "baseline");

    for (const int listen : {1, 2, 5}) {
        core::PsmConfig p;
        p.listen_interval = listen;
        const auto r = backend.run(core::ScenarioSpec::psm().with_stream(config).with_psm(p));
        row("psm, listen-interval " + std::to_string(listen), r.mean_wnic(), r.min_qos(),
            "wake every " + std::to_string(listen) + " beacon(s)");
    }
    {
        core::PsmConfig p;
        p.aggregate_limit = 8;
        const auto r = backend.run(core::ScenarioSpec::psm().with_stream(config).with_psm(p));
        row("psm + aggregation (8 MSDUs)", r.mean_wnic(), r.min_qos(),
            "fewer polls, longer doze");
    }
    for (const int sf_ms : {100, 250}) {
        const auto r = backend.run(core::ScenarioSpec::ecmac().with_stream(config).with_ecmac(
            core::EcmacConfig{}.with_superframe(Time::from_ms(sf_ms))));
        row("ec-mac, superframe " + std::to_string(sf_ms) + " ms", r.mean_wnic(), r.min_qos(),
            "collision-free schedule");
    }

    bu::note("expected shape: psm << cam; aggregation <= psm; ec-mac <= psm (no poll contention)");

    pamas_demo();
    return 0;
}
