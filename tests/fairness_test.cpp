/// Fairness and latency-bound properties of the MAC layers.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/access_point.hpp"
#include "mac/bss.hpp"
#include "mac/ecmac.hpp"
#include "mac/station.hpp"
#include "sim/simulator.hpp"
#include "traffic/source.hpp"

namespace wlanps::mac {
namespace {

using namespace time_literals;

TEST(FairnessTest, SaturatedDcfSharesAirtimeEvenly) {
    // Classic CSMA/CA property: N identical saturated uplink stations get
    // roughly equal goodput (binary exponential backoff is long-run fair).
    sim::Simulator sim;
    sim::Random root(71);
    Bss bss(sim);
    AccessPointConfig cfg;
    cfg.mode = ApMode::cam;
    AccessPoint ap(sim, bss, cfg, DcfConfig{}, root.fork(1));

    const int n = 4;
    std::vector<std::unique_ptr<WlanStation>> stations;
    for (int i = 0; i < n; ++i) {
        StationConfig st;
        st.mode = StationMode::cam;
        stations.push_back(std::make_unique<WlanStation>(
            sim, bss, static_cast<StationId>(i + 1), st, DcfConfig{}, phy::WlanNicConfig{},
            root.fork(static_cast<std::uint64_t>(10 + i))));
        SaturatedUplink{stations.back().get(), &sim, DataSize::from_bytes(1400),
                        Time::from_seconds(10)}
            .start();
    }
    sim.run_until(Time::from_seconds(10));

    std::vector<std::int64_t> delivered;
    for (const auto& st : stations) delivered.push_back(st->bytes_sent().bytes());
    std::int64_t total = 0, min_share = delivered[0], max_share = delivered[0];
    for (const auto d : delivered) {
        total += d;
        min_share = std::min(min_share, d);
        max_share = std::max(max_share, d);
    }
    ASSERT_GT(total, 0);
    // Jain-style check: no station below 60% or above 140% of the mean.
    const double mean = static_cast<double>(total) / n;
    EXPECT_GT(min_share, mean * 0.6);
    EXPECT_LT(max_share, mean * 1.4);
}

TEST(FairnessTest, PsmServesAllStationsEachBeaconInterval) {
    // Under light per-station load, PSM latency stays bounded by roughly
    // one beacon interval for every station — nobody starves.
    sim::Simulator sim;
    sim::Random root(72);
    Bss bss(sim);
    AccessPointConfig cfg;
    cfg.mode = ApMode::psm;
    AccessPoint ap(sim, bss, cfg, DcfConfig{}, root.fork(1));
    const int n = 4;
    std::vector<std::unique_ptr<WlanStation>> stations;
    std::vector<std::unique_ptr<traffic::PoissonSource>> sources;
    for (int i = 0; i < n; ++i) {
        StationConfig st;
        st.mode = StationMode::psm;
        stations.push_back(std::make_unique<WlanStation>(
            sim, bss, static_cast<StationId>(i + 1), st, DcfConfig{}, phy::WlanNicConfig{},
            root.fork(static_cast<std::uint64_t>(10 + i))));
        const auto id = static_cast<StationId>(i + 1);
        sources.push_back(std::make_unique<traffic::PoissonSource>(
            sim, [&ap, id](DataSize s) { ap.send(id, s); }, DataSize::from_bytes(800),
            Rate::from_kbps(32), root.fork(static_cast<std::uint64_t>(20 + i))));
    }
    ap.start();
    for (auto& st : stations) {
        st->start(ap.config().beacon_interval, ap.config().beacon_interval);
    }
    for (auto& s : sources) s->start();
    sim.run_until(Time::from_seconds(30));

    for (auto& st : stations) {
        ASSERT_GT(st->delivery_latency().count(), 50u);
        // Mean latency ~ half a beacon interval; the 95th percentile-ish
        // bound is two intervals.
        EXPECT_LT(st->delivery_latency().mean(), 0.15);
        EXPECT_LT(st->delivery_latency().max(), 0.45);
    }
}

TEST(FairnessTest, EcMacLatencyBoundedByTwoSuperframes) {
    sim::Simulator sim;
    sim::Random root(73);
    Bss bss(sim);
    EcMacConfig cfg;
    cfg.superframe = 100_ms;
    EcMacController controller(sim, bss, cfg, root.fork(1));
    EcMacStation st(sim, bss, 1, cfg, phy::WlanNicConfig{});
    controller.start();
    st.start(controller.superframe_anchor());

    Time worst = Time::zero();
    std::size_t count = 0;
    st.set_receive_callback([&](DataSize, Time latency) {
        worst = std::max(worst, latency);
        ++count;
    });
    traffic::PoissonSource src(sim, [&controller](DataSize s) { controller.send(1, s); },
                               DataSize::from_bytes(800), Rate::from_kbps(64), root.fork(2));
    src.start();
    sim.run_until(Time::from_seconds(30));

    ASSERT_GT(count, 100u);
    // A frame arriving just after a boundary rides the next superframe:
    // worst case is ~2 superframes (plus slot position within it).
    EXPECT_LT(worst, cfg.superframe * 2.5);
}

}  // namespace
}  // namespace wlanps::mac
