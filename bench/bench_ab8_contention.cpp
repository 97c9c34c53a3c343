/// \file bench_ab8_contention.cpp
/// AB8 — DCF contention and RTS/CTS protection (paper §1, MAC layer).
///
/// The survey's MAC discussion presumes contention costs energy: collided
/// frames burn full transmit power and airtime.  This bench saturates an
/// increasing number of uplink stations and reports collisions, goodput,
/// and per-station radio energy per delivered megabyte, with and without
/// RTS/CTS protection (which converts full-frame collisions into cheap
/// 20-byte RTS collisions at the price of per-frame control overhead).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "mac/access_point.hpp"
#include "mac/station.hpp"

using namespace wlanps;
namespace bu = benchutil;

namespace {

struct Outcome {
    std::uint64_t collisions = 0;
    double goodput_mbps = 0.0;
    double joules_per_mb = 0.0;
};

Outcome run(int stations, bool rts, Time duration = Time::from_seconds(5)) {
    sim::Simulator sim;
    sim::Random root(515);
    mac::Bss bss(sim);
    mac::DcfConfig dcf;
    dcf.use_rts_cts = rts;
    dcf.rts_threshold = DataSize::from_bytes(500);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = mac::ApMode::cam;
    mac::AccessPoint ap(sim, bss, ap_cfg, dcf, root.fork(1));

    std::vector<std::unique_ptr<mac::WlanStation>> sta;
    for (int i = 0; i < stations; ++i) {
        mac::StationConfig st_cfg;
        st_cfg.mode = mac::StationMode::cam;
        sta.push_back(std::make_unique<mac::WlanStation>(
            sim, bss, static_cast<mac::StationId>(i + 1), st_cfg, dcf, phy::WlanNicConfig{},
            root.fork(static_cast<std::uint64_t>(10 + i))));
    }

    // Saturated uplink: every station re-sends on completion.
    for (auto& st : sta) {
        mac::SaturatedUplink{st.get(), &sim, DataSize::from_bytes(1400), duration}.start();
    }
    sim.run_until(duration);

    Outcome out;
    out.collisions = bss.medium().collisions();
    out.goodput_mbps =
        static_cast<double>(ap.uplink_bytes().bits()) / duration.to_seconds() / 1e6;
    power::Energy radio;
    for (auto& st : sta) radio += st->energy_consumed();
    const double mb = static_cast<double>(ap.uplink_bytes().bytes()) / 1e6;
    out.joules_per_mb = mb > 0.0 ? radio.joules() / mb : 0.0;
    return out;
}

}  // namespace

int main() {
    bu::heading("AB8", "Saturated uplink contention: collisions, goodput, energy (1400 B frames)");

    std::printf("%-10s | %12s %12s %12s | %12s %12s %12s\n", "", "plain", "", "",
                "RTS/CTS", "", "");
    std::printf("%-10s | %12s %12s %12s | %12s %12s %12s\n", "stations", "collisions",
                "goodput", "J/MB", "collisions", "goodput", "J/MB");
    for (const int n : {1, 2, 4, 8}) {
        const Outcome plain = run(n, false);
        const Outcome rts = run(n, true);
        std::printf("%-10d | %12llu %9.2f Mb/s %9.2f | %12llu %9.2f Mb/s %9.2f\n", n,
                    static_cast<unsigned long long>(plain.collisions), plain.goodput_mbps,
                    plain.joules_per_mb, static_cast<unsigned long long>(rts.collisions),
                    rts.goodput_mbps, rts.joules_per_mb);
    }
    bu::note("expected shape: collisions grow with contention; RTS/CTS trades per-frame");
    bu::note("overhead (lower goodput at low N) for cheap collisions (shorter wasted airtime)");
    return 0;
}
