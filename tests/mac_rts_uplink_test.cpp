/// Tests for RTS/CTS protection and station uplink traffic.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/access_point.hpp"
#include "mac/bss.hpp"
#include "mac/station.hpp"
#include "sim/simulator.hpp"

namespace wlanps::mac {
namespace {

using namespace time_literals;

struct UplinkWorld {
    sim::Simulator sim;
    sim::Random root{31};
    Bss bss{sim};
    std::unique_ptr<AccessPoint> ap;
    std::vector<std::unique_ptr<WlanStation>> stations;

    UplinkWorld(int n_stations, DcfConfig dcf, StationMode mode = StationMode::cam) {
        AccessPointConfig cfg;
        cfg.mode = mode == StationMode::cam ? ApMode::cam : ApMode::psm;
        ap = std::make_unique<AccessPoint>(sim, bss, cfg, dcf, root.fork(1));
        for (int i = 0; i < n_stations; ++i) {
            StationConfig st;
            st.mode = mode;
            stations.push_back(std::make_unique<WlanStation>(
                sim, bss, static_cast<StationId>(i + 1), st, dcf, phy::WlanNicConfig{},
                root.fork(static_cast<std::uint64_t>(10 + i))));
        }
    }
};

TEST(UplinkTest, CamStationSendsToAp) {
    UplinkWorld w(1, DcfConfig{});
    bool delivered = false;
    w.stations[0]->send_up(DataSize::from_bytes(1200), [&](bool ok) { delivered = ok; });
    w.sim.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(w.ap->uplink_frames(), 1u);
    EXPECT_EQ(w.ap->uplink_bytes(), DataSize::from_bytes(1200));
    EXPECT_EQ(w.stations[0]->bytes_sent(), DataSize::from_bytes(1200));
}

TEST(UplinkTest, PsmStationWakesSendsAndDozes) {
    UplinkWorld w(1, DcfConfig{}, StationMode::psm);
    w.ap->start();
    w.stations[0]->start(w.ap->config().beacon_interval, w.ap->config().beacon_interval);
    w.sim.run_until(50_ms);  // dozing
    ASSERT_FALSE(w.stations[0]->wlan_nic().awake());
    bool delivered = false;
    w.stations[0]->send_up(DataSize::from_bytes(900), [&](bool ok) { delivered = ok; });
    w.sim.run_until(90_ms);
    EXPECT_TRUE(delivered);
    EXPECT_EQ(w.ap->uplink_frames(), 1u);
    // Back in doze shortly after.
    EXPECT_EQ(w.stations[0]->wlan_nic().state(), phy::WlanNic::State::doze);
}

TEST(UplinkTest, ContentionAmongUplinkersCausesCollisions) {
    UplinkWorld w(4, DcfConfig{});
    // Everyone saturates: re-send on completion for a while.
    for (auto& st : w.stations) {
        SaturatedUplink{st.get(), &w.sim, DataSize::from_bytes(1400), Time::from_seconds(2)}
            .start();
    }
    w.sim.run_until(Time::from_seconds(2));
    EXPECT_GT(w.bss.medium().collisions(), 0u);
    EXPECT_GT(w.ap->uplink_frames(), 100u);
}

TEST(RtsCtsTest, ProtectedFrameStillDelivers) {
    DcfConfig dcf;
    dcf.use_rts_cts = true;
    dcf.rts_threshold = DataSize::from_bytes(500);
    UplinkWorld w(1, dcf);
    bool delivered = false;
    w.stations[0]->send_up(DataSize::from_bytes(1400), [&](bool ok) { delivered = ok; });
    w.sim.run();
    EXPECT_TRUE(delivered);
    // RTS + CTS + DATA + ACK on the medium.
    EXPECT_EQ(w.bss.medium().transmissions(), 4u);
    EXPECT_EQ(w.stations[0]->dcf().rts_exchanges(), 1u);
}

TEST(RtsCtsTest, SmallFramesSkipRts) {
    DcfConfig dcf;
    dcf.use_rts_cts = true;
    dcf.rts_threshold = DataSize::from_bytes(500);
    UplinkWorld w(1, dcf);
    w.stations[0]->send_up(DataSize::from_bytes(200));
    w.sim.run();
    // DATA + ACK only.
    EXPECT_EQ(w.bss.medium().transmissions(), 2u);
    EXPECT_EQ(w.stations[0]->dcf().rts_exchanges(), 0u);
}

TEST(RtsCtsTest, DozingReceiverCostsOnlyRts) {
    DcfConfig dcf;
    dcf.use_rts_cts = true;
    dcf.rts_threshold = DataSize::zero();
    dcf.retry_limit = 1;
    UplinkWorld w(1, dcf);
    w.stations[0]->wlan_nic().doze();
    w.sim.run();
    bool delivered = true;
    w.ap->send(1, DataSize::from_bytes(1400), [&](bool ok) { delivered = ok; });
    w.sim.run();
    EXPECT_FALSE(delivered);
    // Only the RTS went on air (no CTS -> no data frame wasted).
    EXPECT_EQ(w.bss.medium().transmissions(), 1u);
}

TEST(RtsCtsTest, ReducesCollisionAirtimeUnderContention) {
    // Saturated uplink from 4 stations with large frames: with RTS/CTS the
    // collided airtime (short RTSes) is far below the plain case (full
    // data frames).
    auto run = [](bool rts) {
        DcfConfig dcf;
        dcf.use_rts_cts = rts;
        dcf.rts_threshold = DataSize::from_bytes(500);
        UplinkWorld w(4, dcf);
        for (auto& st : w.stations) {
            SaturatedUplink{st.get(), &w.sim, DataSize::from_bytes(1400),
                            Time::from_seconds(3)}
                .start();
        }
        w.sim.run_until(Time::from_seconds(3));
        struct Out {
            std::uint64_t collisions;
            DataSize goodput;
        } out{w.bss.medium().collisions(), w.ap->uplink_bytes()};
        return out;
    };
    const auto plain = run(false);
    const auto protectd = run(true);
    // Both configurations move useful data and experience collisions.
    EXPECT_GT(plain.collisions, 0u);
    EXPECT_GT(protectd.collisions, 0u);
    // The trade-off in a single collision domain (no hidden terminals):
    // RTS/CTS pays a per-frame control overhead (basic-rate RTS + CTS +
    // two PLCP preambles ~ 35% here) in exchange for collisions costing a
    // 20-byte RTS instead of a 1400-byte data frame.  Goodput is lower,
    // but bounded — the protection isn't catastrophic.
    EXPECT_LT(protectd.goodput.bytes(), plain.goodput.bytes());
    EXPECT_GT(protectd.goodput.bytes(), plain.goodput.bytes() * 6 / 10);
}

}  // namespace
}  // namespace wlanps::mac
