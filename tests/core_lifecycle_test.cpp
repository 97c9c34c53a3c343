/// Tests for dynamic client lifecycle (arrivals/departures), the decision
/// log, and the mixed-workload scenario.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bt/piconet.hpp"
#include "core/backend.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/scenario_spec.hpp"
#include "core/server.hpp"
#include "sim/assert.hpp"
#include "sim/simulator.hpp"

namespace wlanps::core {
namespace {

using namespace time_literals;

struct LifecycleFixture {
    sim::Simulator sim;
    sim::Random root{91};
    bt::Piconet piconet{sim, bt::PiconetConfig{}, sim::Random(92)};
    std::vector<std::unique_ptr<bt::BtSlave>> slaves;
    std::vector<std::unique_ptr<HotspotClient>> clients;
    HotspotServer server{sim, ServerConfig{}, make_scheduler("edf")};

    HotspotClient& make_client() {
        const auto id = static_cast<ClientId>(clients.size() + 1);
        QosContract contract;
        contract.stream_rate = phy::calibration::kMp3Rate;
        auto client = std::make_unique<HotspotClient>(sim, id, contract);
        slaves.push_back(std::make_unique<bt::BtSlave>(sim, phy::BtNicConfig{},
                                                       phy::BtNic::State::active));
        const auto sid = piconet.join(*slaves.back());
        client->add_channel(std::make_unique<BtBurstChannel>(piconet, sid, *slaves.back()));
        clients.push_back(std::move(client));
        return *clients.back();
    }
};

TEST(LifecycleTest, MidRunArrivalIsServed) {
    LifecycleFixture f;
    HotspotClient& first = f.make_client();
    ASSERT_TRUE(f.server.try_register(first));
    f.server.set_stored_content(first.id(), true);
    first.start();
    f.server.start();
    f.sim.run_until(Time::from_seconds(30));

    // A second client walks into the Hotspot at t = 30 s.
    HotspotClient& second = f.make_client();
    ASSERT_TRUE(f.server.try_register(second));
    f.server.set_stored_content(second.id(), true);
    second.start();
    f.sim.run_until(Time::from_seconds(90));

    EXPECT_GT(f.server.report(second.id()).bursts, 10u);
    EXPECT_EQ(second.playout().underruns(), 0u);
    // The first client is unaffected.
    EXPECT_EQ(first.playout().underruns(), 0u);
}

TEST(LifecycleTest, DepartureReleasesBandwidth) {
    LifecycleFixture f;
    HotspotClient& a = f.make_client();
    HotspotClient& b = f.make_client();
    ASSERT_TRUE(f.server.try_register(a));
    ASSERT_TRUE(f.server.try_register(b));
    const Rate before = f.server.reserved(phy::Interface::bluetooth);
    f.server.unregister_client(a.id());
    EXPECT_NEAR(f.server.reserved(phy::Interface::bluetooth).bps(), before.bps() / 2.0, 1.0);
    EXPECT_EQ(f.server.client_count(), 1u);
    EXPECT_THROW((void)f.server.report(a.id()), ContractViolation);
}

TEST(LifecycleTest, DepartureMidStreamIsSafe) {
    LifecycleFixture f;
    HotspotClient& a = f.make_client();
    HotspotClient& b = f.make_client();
    ASSERT_TRUE(f.server.try_register(a));
    ASSERT_TRUE(f.server.try_register(b));
    for (auto& c : f.clients) {
        f.server.set_stored_content(c->id(), true);
        c->start();
    }
    f.server.start();
    f.sim.run_until(Time::from_seconds(20));
    f.server.unregister_client(a.id());
    // Ingest for the departed client must not resurrect it.
    auto sink = f.server.ingest_sink(b.id());
    sink(DataSize::from_bytes(100));
    f.sim.run_until(Time::from_seconds(60));
    EXPECT_EQ(f.server.client_count(), 1u);
    // The survivor streams on, unharmed.
    EXPECT_EQ(b.playout().underruns(), 0u);
    EXPECT_GT(f.server.report(b.id()).bursts, 10u);
}

TEST(LifecycleTest, FreedCapacityAdmitsNewcomer) {
    ServerConfig cfg;
    LifecycleFixture f;
    // Fill the Bluetooth capacity (4 x 153.6 kb/s fits in 650 kb/s).
    std::vector<ClientId> ids;
    for (int i = 0; i < 4; ++i) {
        HotspotClient& c = f.make_client();
        ASSERT_TRUE(f.server.try_register(c));
        ids.push_back(c.id());
    }
    HotspotClient& fifth = f.make_client();
    EXPECT_FALSE(f.server.try_register(fifth));
    f.server.unregister_client(ids[0]);
    EXPECT_TRUE(f.server.try_register(fifth));
}

TEST(DecisionLogTest, RecordsPlannedBursts) {
    LifecycleFixture f;
    HotspotClient& c = f.make_client();
    ASSERT_TRUE(f.server.try_register(c));
    f.server.set_stored_content(c.id(), true);
    c.start();
    f.server.start();
    f.sim.run_until(Time::from_seconds(30));
    ASSERT_FALSE(f.server.decisions().empty());
    for (const auto& d : f.server.decisions()) {
        EXPECT_EQ(d.client, c.id());
        EXPECT_EQ(d.interface, phy::Interface::bluetooth);
        EXPECT_GT(d.size.bytes(), 0);
        EXPECT_GE(d.deadline, d.at);
    }
    // Newest last.
    EXPECT_GT(f.server.decisions().back().at, f.server.decisions().front().at);
}

TEST(MixedWorkloadTest, VideoGoesToWlanAudioToBt) {
    StreamConfig config;
    config.clients = 0;  // ignored by the mixed runner
    config.duration = Time::from_seconds(60);
    MixedWorkload mix;
    mix.mp3_clients = 2;
    mix.video_clients = 1;
    mix.web_clients = 1;

    std::size_t video_channel = 99, mp3_channel = 99;
    HotspotConfig options;
    options.inspect = [&](sim::Simulator&, HotspotServer& server,
                          std::vector<HotspotClient*>&) {
        mp3_channel = server.report(1).current_channel;     // first MP3 client
        video_channel = server.report(3).current_channel;   // the video client
    };
    const auto result = SimBackend{}.run(ScenarioSpec::hotspot_mixed()
                                             .with_stream(config)
                                             .with_hotspot(options)
                                             .with_mix(mix));

    ASSERT_EQ(result.clients.size(), 4u);
    // Channel 0 = WLAN, channel 1 = BT (registration order in the builder).
    EXPECT_EQ(mp3_channel, 1u);    // audio rides Bluetooth
    EXPECT_EQ(video_channel, 0u);  // 600 kb/s VBR needs WLAN
    // Streaming clients hold QoS.
    EXPECT_DOUBLE_EQ(result.clients[0].qos, 1.0);
    EXPECT_DOUBLE_EQ(result.clients[1].qos, 1.0);
    EXPECT_GT(result.clients[2].qos, 0.98);  // video: rare VBR jitter allowed
    // Web client received nearly everything that was generated for it.
    EXPECT_GT(result.clients[3].qos, 0.80);
    // Video client pays more than audio clients (WLAN bursts), but far
    // less than an always-on WLAN NIC.
    EXPECT_GT(result.clients[2].wnic_average.watts(),
              result.clients[0].wnic_average.watts());
    EXPECT_LT(result.clients[2].wnic_average.watts(), 0.5);
}

TEST(MixedWorkloadTest, HonoursBtAvailable) {
    // The one hotspot builder reads every HotspotConfig field for mixed
    // clients too: without Bluetooth, no client ends on BT.
    StreamConfig config;
    config.duration = Time::from_seconds(30);
    std::vector<phy::Interface> serving;
    HotspotConfig options;
    options.bt_available = false;
    options.inspect = [&](sim::Simulator&, HotspotServer& server,
                          std::vector<HotspotClient*>& clients) {
        for (HotspotClient* c : clients) {
            const ClientReport report = server.report(c->id());
            serving.push_back(c->channel(report.current_channel).interface());
        }
    };
    const auto result = SimBackend{}.run(
        ScenarioSpec::hotspot_mixed().with_stream(config).with_hotspot(options));
    ASSERT_EQ(result.clients.size(), 4u);
    ASSERT_EQ(serving.size(), 4u);
    for (phy::Interface itf : serving) EXPECT_EQ(itf, phy::Interface::wlan);
}

TEST(MixedWorkloadTest, RefusesMediaProxy) {
    HotspotConfig options;
    options.media_proxy = true;
    EXPECT_THROW(ScenarioSpec::hotspot_mixed().with_hotspot(options).validate(),
                 ContractViolation);
}

TEST(MixedWorkloadTest, AllClientsFarBelowAlwaysOn) {
    StreamConfig config;
    config.duration = Time::from_seconds(60);
    const auto result =
        SimBackend{}.run(ScenarioSpec::hotspot_mixed().with_stream(config));
    for (const auto& c : result.clients) {
        EXPECT_LT(c.wnic_average.watts(), 0.45);  // vs 0.84 W always-on WLAN
    }
}

}  // namespace
}  // namespace wlanps::core
