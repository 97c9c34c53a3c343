/// Tests for admission control, bandwidth reservation, and battery-aware
/// scheduling (paper §2: the resource manager "allocates appropriate
/// bandwidth for communication" and knows clients' "battery levels").

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bt/piconet.hpp"
#include "core/backend.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/scenario_spec.hpp"
#include "core/server.hpp"
#include "power/battery.hpp"
#include "sim/assert.hpp"
#include "sim/simulator.hpp"

namespace wlanps::core {
namespace {

using namespace time_literals;

/// Builds BT-only clients on a shared piconet against one server.
struct AdmissionFixture {
    sim::Simulator sim;
    sim::Random root{81};
    bt::Piconet piconet{sim, bt::PiconetConfig{}, sim::Random(82)};
    std::vector<std::unique_ptr<bt::BtSlave>> slaves;
    std::vector<std::unique_ptr<HotspotClient>> clients;
    std::unique_ptr<HotspotServer> server;

    explicit AdmissionFixture(ServerConfig cfg = ServerConfig{}) {
        server = std::make_unique<HotspotServer>(sim, cfg, make_scheduler("edf"));
    }

    HotspotClient& make_client(Rate stream_rate, bool with_wlan = false) {
        const auto id = static_cast<ClientId>(clients.size() + 1);
        QosContract contract;
        contract.stream_rate = stream_rate;
        auto client = std::make_unique<HotspotClient>(sim, id, contract);
        if (with_wlan) {
            // Not wired to a NIC here; admission only reads goodput, so a
            // real channel is required — use a WLAN nic + perfect link.
            wlan_nics.push_back(std::make_unique<phy::WlanNic>(sim, phy::WlanNicConfig{},
                                                               phy::WlanNic::State::idle));
            client->add_channel(
                std::make_unique<WlanBurstChannel>(sim, *wlan_nics.back(), nullptr));
        }
        slaves.push_back(std::make_unique<bt::BtSlave>(sim, phy::BtNicConfig{},
                                                       phy::BtNic::State::active));
        const auto sid = piconet.join(*slaves.back());
        client->add_channel(std::make_unique<BtBurstChannel>(piconet, sid, *slaves.back()));
        clients.push_back(std::move(client));
        return *clients.back();
    }

    std::vector<std::unique_ptr<phy::WlanNic>> wlan_nics;
};

TEST(AdmissionTest, AdmitsUntilCapacityExhausted) {
    AdmissionFixture f;
    // BT capacity: 723.2 kb/s * 0.9 = 650.9 kb/s; each client reserves
    // 128 * 1.2 = 153.6 kb/s -> 4 fit, the 5th is rejected.
    int admitted = 0;
    for (int i = 0; i < 5; ++i) {
        HotspotClient& c = f.make_client(Rate::from_kbps(128));
        admitted += f.server->try_register(c);
    }
    EXPECT_EQ(admitted, 4);
    EXPECT_NEAR(f.server->reserved(phy::Interface::bluetooth).kbps(), 4 * 153.6, 0.1);
    EXPECT_NEAR(f.server->capacity(phy::Interface::bluetooth).kbps(), 650.9, 0.5);
}

TEST(AdmissionTest, SecondInterfaceAbsorbsOverflow) {
    AdmissionFixture f;
    // Admission prefers the lowest-power interface (BT for audio) and
    // overflows to WLAN once BT's reservable capacity (4 streams) is gone.
    int admitted = 0;
    for (int i = 0; i < 6; ++i) {
        HotspotClient& c = f.make_client(Rate::from_kbps(128), /*with_wlan=*/true);
        admitted += f.server->try_register(c);
    }
    EXPECT_EQ(admitted, 6);
    EXPECT_NEAR(f.server->reserved(phy::Interface::bluetooth).kbps(), 4 * 153.6, 0.1);
    EXPECT_NEAR(f.server->reserved(phy::Interface::wlan).kbps(), 2 * 153.6, 0.1);
}

TEST(AdmissionTest, RegisterClientThrowsWhenDenied) {
    ServerConfig cfg;
    cfg.utilization_cap = 0.10;  // BT fits no 128 kb/s stream at all
    AdmissionFixture f(cfg);
    HotspotClient& c = f.make_client(Rate::from_kbps(128));
    EXPECT_THROW(f.server->register_client(c), ContractViolation);
}

TEST(AdmissionTest, DeniedClientLeavesNoState) {
    ServerConfig cfg;
    cfg.utilization_cap = 0.10;
    AdmissionFixture f(cfg);
    HotspotClient& c = f.make_client(Rate::from_kbps(128));
    EXPECT_FALSE(f.server->try_register(c));
    EXPECT_DOUBLE_EQ(f.server->reserved(phy::Interface::bluetooth).bps(), 0.0);
    EXPECT_THROW((void)f.server->report(c.id()), ContractViolation);
}

// A scenario whose t = 0 clients overflow the piconet's reservable
// bandwidth: five 128 kb/s streams on a BT-only hotspot.
ScenarioSpec overbooked_bt_hotspot() {
    StreamConfig stream;
    stream.clients = 5;
    stream.duration = 20_s;
    return ScenarioSpec::hotspot().with_stream(stream).with_hotspot(
        HotspotConfig{}.with_wlan_available(false));
}

TEST(AdmissionTest, RefusedAtBuildTimeIsAResult) {
    // validate() passes, so the run must complete: a client admission
    // refuses at t = 0 stays unregistered and reports zero bytes.
    const ScenarioResult result = SimBackend{}.run(overbooked_bt_hotspot());
    ASSERT_EQ(result.clients.size(), 5u);
    std::size_t starved = 0;
    for (const ClientMetrics& c : result.clients) {
        if (c.received.is_zero()) ++starved;
    }
    EXPECT_GE(starved, 1u);
    EXPECT_LT(starved, 5u);
}

TEST(AdmissionTest, RefusedAtBuildTimeRejoinKeepsTrying) {
    // With rejoin on, each refused client's agent retries admission.
    ScenarioSpec spec = overbooked_bt_hotspot();
    spec.with_hotspot(HotspotConfig{}.with_wlan_available(false).with_rejoin(RejoinPolicy{}));
    const ScenarioResult result = SimBackend{}.run(spec);
    ASSERT_EQ(result.clients.size(), 5u);
    EXPECT_GE(result.recovery.rejoin_attempts, 1u);
}

TEST(AdmissionTest, ReservationFollowsInterfaceSwitch) {
    AdmissionFixture f;
    HotspotClient& c = f.make_client(Rate::from_kbps(128), /*with_wlan=*/true);
    ASSERT_TRUE(f.server->try_register(c));
    // Initial reservation lands on the first fitting channel (WLAN is
    // channel 0 by construction here).
    const Rate wlan_before = f.server->reserved(phy::Interface::wlan);
    const Rate bt_before = f.server->reserved(phy::Interface::bluetooth);
    EXPECT_GT(wlan_before.bps() + bt_before.bps(), 0.0);

    f.server->set_stored_content(c.id(), true);
    c.start();
    f.server->start();
    f.sim.run_until(Time::from_seconds(20));
    // The selector serves audio on BT; the reservation must sit there now.
    EXPECT_EQ(f.server->report(c.id()).current_channel, 1u);
    EXPECT_NEAR(f.server->reserved(phy::Interface::bluetooth).kbps(), 153.6, 0.1);
    EXPECT_DOUBLE_EQ(f.server->reserved(phy::Interface::wlan).bps(), 0.0);
}

TEST(BatteryAwareTest, ClientReportsBatteryAndDrainsIt) {
    AdmissionFixture f;
    HotspotClient& c = f.make_client(Rate::from_kbps(128));
    power::BatteryConfig bcfg;
    bcfg.capacity = power::Energy::from_joules(100.0);
    bcfg.rate_exponent = 0.0;
    power::Battery battery(bcfg);
    c.attach_battery(battery);
    ASSERT_TRUE(f.server->try_register(c));
    f.server->set_stored_content(c.id(), true);
    c.start();
    f.server->start();
    EXPECT_DOUBLE_EQ(c.battery_level(), 1.0);
    f.sim.run_until(Time::from_seconds(300));
    // ~35 mW * 300 s ~ 10 J drained.
    EXPECT_LT(c.battery_level(), 0.95);
    EXPECT_GT(c.battery_level(), 0.80);
}

TEST(BatteryAwareTest, NoBatteryReportsFull) {
    AdmissionFixture f;
    HotspotClient& c = f.make_client(Rate::from_kbps(128));
    EXPECT_DOUBLE_EQ(c.battery_level(), 1.0);
}

TEST(BatteryAwareTest, LowBatteryClientGetsLargerBursts) {
    ServerConfig cfg;
    cfg.battery_aware = true;
    AdmissionFixture f(cfg);
    HotspotClient& c = f.make_client(Rate::from_kbps(128));
    power::BatteryConfig bcfg;
    bcfg.capacity = power::Energy::from_joules(1000.0);
    bcfg.rate_exponent = 0.0;
    power::Battery low(bcfg);
    low.drain(power::Energy::from_joules(800.0), power::Power::from_watts(1.0));  // at 20%
    c.attach_battery(low);
    ASSERT_TRUE(f.server->try_register(c));
    f.server->set_stored_content(c.id(), true);
    c.start();
    f.server->start();
    f.sim.run_until(Time::from_seconds(120));
    const auto rep_low = f.server->report(c.id());

    // Reference: same run with a full battery.
    ServerConfig cfg2;
    cfg2.battery_aware = true;
    AdmissionFixture g(cfg2);
    HotspotClient& c2 = g.make_client(Rate::from_kbps(128));
    ASSERT_TRUE(g.server->try_register(c2));
    g.server->set_stored_content(c2.id(), true);
    c2.start();
    g.server->start();
    g.sim.run_until(Time::from_seconds(120));
    const auto rep_full = g.server->report(c2.id());

    // Low battery -> ~1.8x target burst -> correspondingly fewer bursts.
    EXPECT_LT(rep_low.bursts, rep_full.bursts * 3 / 4);
    // Same data delivered either way.
    EXPECT_NEAR(static_cast<double>(rep_low.delivered.bytes()),
                static_cast<double>(rep_full.delivered.bytes()),
                static_cast<double>(DataSize::from_kilobytes(128).bytes()));
}

}  // namespace
}  // namespace wlanps::core
