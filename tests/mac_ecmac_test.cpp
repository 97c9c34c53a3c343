/// Tests for the EC-MAC centrally scheduled MAC.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "mac/bss.hpp"
#include "mac/ecmac.hpp"
#include "sim/simulator.hpp"
#include "traffic/source.hpp"

namespace wlanps::mac {
namespace {

using namespace time_literals;

struct EcWorld {
    sim::Simulator sim;
    sim::Random root{17};
    Bss bss{sim};
    std::unique_ptr<EcMacController> controller;
    std::vector<std::unique_ptr<EcMacStation>> stations;

    explicit EcWorld(int n_stations, Time superframe = 100_ms) {
        EcMacConfig cfg;
        cfg.superframe = superframe;
        controller = std::make_unique<EcMacController>(sim, bss, cfg, root.fork(1));
        for (int i = 0; i < n_stations; ++i) {
            stations.push_back(std::make_unique<EcMacStation>(
                sim, bss, static_cast<StationId>(i + 1), cfg, phy::WlanNicConfig{}));
        }
    }

    void start() {
        controller->start();
        for (auto& s : stations) s->start(controller->superframe_anchor());
    }
};

TEST(EcMacTest, DeliversBufferedData) {
    EcWorld w(1);
    w.start();
    bool delivered = false;
    w.controller->send(1, DataSize::from_bytes(1000), [&](bool ok) { delivered = ok; });
    w.sim.run_until(Time::from_seconds(1));
    EXPECT_TRUE(delivered);
    EXPECT_EQ(w.stations[0]->frames_received(), 1u);
    EXPECT_EQ(w.stations[0]->bytes_received(), DataSize::from_bytes(1000));
}

TEST(EcMacTest, FragmentsOversizedPayloads) {
    EcWorld w(1);
    w.start();
    // 5000 B > 2304 B MPDU limit -> 3 fragments.
    w.controller->send(1, DataSize::from_bytes(5000));
    w.sim.run_until(Time::from_seconds(1));
    EXPECT_EQ(w.stations[0]->frames_received(), 3u);
    EXPECT_EQ(w.stations[0]->bytes_received(), DataSize::from_bytes(5000));
}

TEST(EcMacTest, NoCollisionsEver) {
    EcWorld w(3);
    w.start();
    std::vector<std::unique_ptr<traffic::Mp3Source>> sources;
    for (int i = 0; i < 3; ++i) {
        const auto id = static_cast<StationId>(i + 1);
        sources.push_back(std::make_unique<traffic::Mp3Source>(
            w.sim, [c = w.controller.get(), id](DataSize s) { c->send(id, s); }));
        sources.back()->start();
    }
    w.sim.run_until(Time::from_seconds(20));
    EXPECT_EQ(w.bss.medium().collisions(), 0u);  // the whole point of EC-MAC
    for (auto& s : w.stations) EXPECT_GT(s->frames_received(), 700u);
}

TEST(EcMacTest, IdleStationsDozeAlmostAlways) {
    EcWorld w(1);
    w.start();
    w.sim.run_until(Time::from_seconds(10));
    const Time doze = w.stations[0]->wlan_nic().residency(phy::WlanNic::State::doze);
    EXPECT_GT(doze / Time::from_seconds(10), 0.93);
}

TEST(EcMacTest, CheaperThanPsmOnSameWorkload) {
    // EC-MAC removes PS-Poll contention; with the same MP3 stream the
    // station should pay less than a PSM station (compare against the
    // measured PSM figure from the Fig2 bench, ~0.23 W).
    EcWorld w(1);
    w.start();
    auto src = std::make_unique<traffic::Mp3Source>(
        w.sim, [c = w.controller.get()](DataSize s) { c->send(1, s); });
    src->start();
    w.sim.run_until(Time::from_seconds(30));
    EXPECT_LT(w.stations[0]->average_power().watts(), 0.20);
    EXPECT_GT(w.stations[0]->frames_received(), 1000u);
}

TEST(EcMacTest, LongerSuperframeLowersPowerRaisesLatency) {
    EcWorld fast(1, 100_ms);
    EcWorld slow(1, 400_ms);
    for (EcWorld* w : {&fast, &slow}) {
        w->start();
        auto src = std::make_unique<traffic::Mp3Source>(
            w->sim, [c = w->controller.get()](DataSize s) { c->send(1, s); });
        src->start();
        w->sim.run_until(Time::from_seconds(30));
        src->stop();
    }
    EXPECT_LT(slow.stations[0]->average_power().watts(),
              fast.stations[0]->average_power().watts());
}

TEST(EcMacTest, LossyLinkRetriesAcrossSuperframes) {
    EcWorld w(1);
    channel::GilbertElliottConfig bad;
    bad.mean_good = 50_ms;
    bad.mean_bad = 50_ms;
    bad.ber_good = 0.0;
    bad.ber_bad = 3e-4;
    w.bss.set_link(1, bad, w.root.fork(5));
    w.start();
    const int n = 40;
    int delivered = 0;
    for (int i = 0; i < n; ++i) {
        w.controller->send(1, DataSize::from_bytes(1400), [&](bool ok) { delivered += ok; });
    }
    w.sim.run_until(Time::from_seconds(10));
    EXPECT_EQ(delivered, n);  // all eventually delivered via re-buffering
    EXPECT_EQ(w.stations[0]->frames_received(), static_cast<std::uint64_t>(n));
}

TEST(EcMacTest, PerStationQuotaCapsSlot) {
    EcWorld w(1);
    w.start();
    // Queue far more than one superframe's quota (64 KB); it must take
    // several superframes to drain.
    const int frames = 100;  // 100 * 2304 B = 230 KB ~ 4 superframes
    for (int i = 0; i < frames; ++i) {
        w.controller->send(1, DataSize::from_bytes(2304));
    }
    w.sim.run_until(250_ms);
    EXPECT_GT(w.controller->buffered(1), 0u);  // not drained in 2 superframes
    w.sim.run_until(Time::from_seconds(2));
    EXPECT_EQ(w.controller->buffered(1), 0u);
    EXPECT_EQ(w.stations[0]->frames_received(), static_cast<std::uint64_t>(frames));
}

TEST(EcMacTest, ScheduleOverrunningItsSuperframeRunsToCompletion) {
    const core::SimBackend backend;
    // 30 MP3 clients book more slot time than the default 100 ms
    // superframe holds: a station whose slot ends past the next boundary
    // must wait for the first boundary still ahead.
    const core::ScenarioSpec crowded =
        core::ScenarioSpec::ecmac().with_clients(30).with_duration(Time::from_seconds(5));
    crowded.validate();
    const core::ScenarioResult result = backend.run(crowded);
    ASSERT_EQ(result.clients.size(), 30u);
    for (const core::ClientMetrics& c : result.clients) EXPECT_GT(c.received.bytes(), 0);
    // Slots overrun a 1 ms superframe throughout the run, which must
    // still complete.
    const core::ScenarioSpec short_superframe =
        core::ScenarioSpec::ecmac()
            .with_ecmac(core::EcmacConfig{}.with_superframe(1_ms))
            .with_duration(Time::from_seconds(20));
    short_superframe.validate();
    EXPECT_EQ(backend.run(short_superframe).clients.size(), 3u);
}

}  // namespace
}  // namespace wlanps::mac
