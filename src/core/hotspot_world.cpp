#include "core/hotspot_world.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bt/piconet.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/media_proxy.hpp"
#include "core/resilience.hpp"
#include "core/scenario_obs.hpp"
#include "core/scheduler.hpp"
#include "core/server.hpp"
#include "fault/injector.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/hooks.hpp"
#include "phy/calibration.hpp"
#include "phy/wlan_nic.hpp"
#include "sim/assert.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "traffic/source.hpp"

namespace wlanps::core {

namespace {

// ---- client rows ------------------------------------------------------------------

/// What fills a client's server-side queue.
enum class Feed {
    stored,  ///< stored MP3, prefetched: bursts sized by the client buffer
    proxy,   ///< live A/V through a MediaProxy (HotspotConfig::media_proxy)
    video,   ///< live VBR video (MixedWorkload)
    web,     ///< live bursty web browsing, no playout QoS (MixedWorkload)
};

/// The contract a client of \p feed signs.
QosContract contract_for(Feed feed, const HotspotConfig& options) {
    QosContract contract;
    contract.stream_rate = phy::calibration::kMp3Rate;
    if (feed == Feed::web) contract.stream_rate = Rate::from_kbps(64);  // bursty, latency-tolerant
    if (feed == Feed::proxy) contract.stream_rate = options.proxy_config.av_rate;
    if (feed == Feed::video) {
        // Mean rate of the default VBR video pattern (GOP of 12 at 25 fps).
        const traffic::VideoSource::Config v;
        const double bytes_per_gop = static_cast<double>(v.i_frame.bytes()) +
                                     3.0 * static_cast<double>(v.p_frame.bytes()) +
                                     8.0 * static_cast<double>(v.b_frame.bytes());
        contract.stream_rate = Rate::from_bps(bytes_per_gop * 8.0 * v.fps / v.gop);
    }
    if (feed == Feed::proxy || feed == Feed::video) {
        // Live streams are consumed as fast as they arrive, so the client can
        // never buffer more than its preroll: a deep preroll buys the long
        // inter-burst sleeps.
        contract.client_buffer = DataSize::from_kilobytes(4096);
        contract.preroll = Time::from_seconds(6);
    }
    return contract;
}

/// One client of a hotspot world, before its devices exist.
struct ClientRow {
    Feed feed = Feed::stored;
    /// Offset of the client's RNG streams (WLAN link 300+, BT link 400+,
    /// live feed 500+): id - 1 for single-workload rows, id for mixed rows.
    std::uint64_t stream = 0;
};

/// \p spec's clients in id order: a MixedWorkload's MP3, then video, then
/// web rows; else stream.clients rows of proxied A/V (media_proxy) or
/// stored MP3.
std::vector<ClientRow> client_rows(const ScenarioSpec& spec) {
    std::vector<ClientRow> rows;
    const auto add = [&rows](int count, Feed feed, std::uint64_t base) {
        for (int i = 0; i < count; ++i) rows.push_back({feed, base + rows.size()});
    };
    if (spec.has_mix()) {
        add(spec.mix().mp3_clients, Feed::stored, 1);
        add(spec.mix().video_clients, Feed::video, 1);
        add(spec.mix().web_clients, Feed::web, 1);
    } else {
        add(spec.stream().clients,
            spec.hotspot_config().media_proxy ? Feed::proxy : Feed::stored, 0);
    }
    return rows;
}

// ---- the world: one queue, its piconet, its clients --------------------------------

/// One client and the devices it owns, as the fault hooks reach them.
struct WorldClient {
    std::unique_ptr<HotspotClient> client;
    std::unique_ptr<phy::WlanNic> nic;             ///< null without WLAN
    std::unique_ptr<channel::WirelessLink> wlink;  ///< null without WLAN
    std::unique_ptr<bt::BtSlave> slave;            ///< null without BT
    bt::SlaveId sid = 0;                           ///< slave id on the piconet, if any
    RejoinAgent* agent = nullptr;                  ///< told of crashes; null without rejoin
};

/// The Hotspot's one event queue, its Bluetooth piconet (RNG stream 100;
/// null without bt_available), and its clients in id order.
struct HotspotWorld {
    const ScenarioSpec& spec;
    sim::Random root;
    sim::Simulator sim;
    std::unique_ptr<bt::Piconet> piconet;
    std::vector<WorldClient> clients;

    HotspotWorld(const ScenarioSpec& s, std::uint64_t seed) : spec(s), root(seed) {
        if (spec.hotspot_config().bt_available) {
            piconet = std::make_unique<bt::Piconet>(sim, bt::PiconetConfig{}, root.fork(100));
        }
    }

    /// Build client \p id of \p row: its WLAN NIC and link (RNG stream
    /// 300 + row.stream) with wlan_available, and its slave on the piconet
    /// (400 + row.stream) with bt_available.
    WorldClient& add_client(ClientId id, const ClientRow& row) {
        const StreamConfig& config = spec.stream();
        const HotspotConfig& options = spec.hotspot_config();
        QosContract contract = contract_for(row.feed, options);
        if (options.contract_tweak) options.contract_tweak(id, contract);
        WorldClient& added = clients.emplace_back();
        added.client = std::make_unique<HotspotClient>(sim, id, contract);
        if (options.wlan_available) {
            added.nic = std::make_unique<phy::WlanNic>(sim, config.wlan_nic,
                                                       phy::WlanNic::State::idle);
            added.wlink = std::make_unique<channel::WirelessLink>(config.wlan_link,
                                                                  root.fork(300 + row.stream));
            added.client->add_channel(
                std::make_unique<WlanBurstChannel>(sim, *added.nic, added.wlink.get()));
        }
        if (piconet) {
            added.slave = std::make_unique<bt::BtSlave>(sim, config.bt_nic,
                                                        phy::BtNic::State::active);
            added.sid = piconet->join(*added.slave);
            piconet->set_link(added.sid, config.bt_link, root.fork(400 + row.stream));
            if (!options.bt_quality_script.empty()) {
                piconet->set_link_script(added.sid, options.bt_quality_script);
            }
            added.client->add_channel(
                std::make_unique<BtBurstChannel>(*piconet, added.sid, *added.slave));
        }
        return added;
    }

    /// Per-client ground truth, in id order.
    [[nodiscard]] ScenarioResult result() const {
        ScenarioResult r;
        r.label = spec.label();
        for (const WorldClient& w : clients) {
            const HotspotClient& c = *w.client;
            r.clients.push_back(make_client_metrics(c.wnic_average_power(), c.wnic_energy(),
                                                    c.playout(), c.bytes_received()));
        }
        return r;
    }

    void publish_metrics(obs::MetricsRegistry& reg) const {
        for (const WorldClient& w : clients) {
            if (w.nic) w.nic->publish_metrics(reg, "phy.wlan");
        }
        for (const WorldClient& w : clients) {
            if (w.slave) w.slave->nic().publish_metrics(reg, "phy.bt");
        }
    }
};

/// Bind \p injector to \p world's clients: WLAN radio lockups and stuck
/// wakes (with wlan_available), per-interface link fault windows, and
/// crash and revive, each also told to the client's rejoin agent if it
/// has one.
void bind_hotspot_faults(fault::FaultInjector& injector, HotspotWorld& world) {
    // Apply \p fn to each client \p target names (0 = every client).
    const auto each = [&world](std::uint32_t target, const auto& fn) {
        for (const WorldClient& c : world.clients) {
            if (target == 0 || c.client->id() == target) fn(c);
        }
    };
    if (world.spec.hotspot_config().wlan_available) {
        injector.phy().nic_lockup = [each](std::uint32_t target, Time until) {
            each(target, [&](const WorldClient& c) { c.nic->inject_lockup(until); });
        };
        injector.phy().wake_stuck = [each](std::uint32_t target, Time extra) {
            each(target, [&](const WorldClient& c) { c.nic->inject_wake_stuck(extra); });
        };
    }
    injector.net().fault_window = [each, &world](std::uint32_t target, fault::FaultSpec::Itf itf,
                                                 double p, Time until) {
        const Time now = world.sim.now();
        if (itf != fault::FaultSpec::Itf::bt) {
            each(target, [&](const WorldClient& c) {
                if (c.wlink) c.wlink->add_fault_window(now, until, p);
            });
        }
        if (itf != fault::FaultSpec::Itf::wlan && world.piconet) {
            each(target, [&](const WorldClient& c) {
                if (auto* link = world.piconet->link(c.sid)) link->add_fault_window(now, until, p);
            });
        }
    };
    injector.core().crash = [each](std::uint32_t target) {
        each(target, [](const WorldClient& c) {
            c.client->crash();
            if (c.agent != nullptr) c.agent->on_crashed();
        });
    };
    injector.core().revive = [each](std::uint32_t target) {
        each(target, [](const WorldClient& c) {
            c.client->revive();
            if (c.agent != nullptr) c.agent->on_revived();
        });
    };
}

}  // namespace

ScenarioResult sim_hotspot(const ScenarioSpec& spec, std::uint64_t seed) {
    WLANPS_REQUIRE_MSG(spec.policy() == Policy::hotspot, "sim_hotspot runs hotspot specs only");
    const HotspotConfig& options = spec.hotspot_config();
    const fault::FaultPlan& plan = spec.stream().fault_plan;
    const std::vector<ClientRow> rows = client_rows(spec);
    HotspotWorld world(spec, seed);
    sim::Simulator& sim = world.sim;
    std::vector<std::unique_ptr<MediaProxy>> proxies;
    std::vector<std::unique_ptr<traffic::Source>> sources;
    std::vector<const traffic::Source*> web_feed(rows.size(), nullptr);
    std::vector<std::unique_ptr<RejoinAgent>> agents;  // index = client id - 1

    HotspotServer server(sim,
                         ServerConfig{}
                             .with_target_burst(options.target_burst)
                             .with_utilization_cap(options.utilization_cap)
                             .with_target_burst_period(options.target_burst_period)
                             .with_resilience(options.resilience),
                         make_scheduler(options.scheduler));
    // The Hotspot proxy streams stored/prefetched media: bursts are sized
    // by the client buffer, not real-time arrival (paper §2).
    const auto stored = [&rows](ClientId id) { return rows[id - 1].feed == Feed::stored; };

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto id = static_cast<ClientId>(i + 1);
        const ClientRow& row = rows[i];
        HotspotClient& client = *world.add_client(id, row).client;
        // Live sinks tolerate the client being unregistered (refused,
        // crashed, reclaimed): content it misses is simply lost.
        traffic::Sink sink = [&server, id](DataSize s) {
            if (server.has_client(id)) server.ingest_sink(id)(s);
        };
        const sim::Random feed_rng = world.root.fork(500 + row.stream);
        switch (row.feed) {
            case Feed::stored:
                break;
            case Feed::proxy: {
                auto proxy = std::make_unique<MediaProxy>(sim, client, std::move(sink),
                                                          options.proxy_config);
                // 600 kb/s-class A/V feed: ~3 KB chunks at the A/V rate.
                sources.push_back(std::make_unique<traffic::PoissonSource>(
                    sim, proxy->ingest_sink(), DataSize::from_bytes(3000),
                    options.proxy_config.av_rate, feed_rng));
                proxies.push_back(std::move(proxy));
                break;
            }
            case Feed::video:
                sources.push_back(std::make_unique<traffic::VideoSource>(
                    sim, std::move(sink), traffic::VideoSource::Config{}, feed_rng));
                break;
            case Feed::web:
                sources.push_back(std::make_unique<traffic::WebSource>(
                    sim, std::move(sink), traffic::WebSource::Config{}, feed_rng));
                web_feed[i] = sources.back().get();
                break;
        }
    }

    // The clients in id order.  Lives through the whole run: on_start
    // callbacks may schedule probes that reference it mid-simulation.
    std::vector<HotspotClient*> clients;
    clients.reserve(world.clients.size());
    for (const WorldClient& w : world.clients) clients.push_back(w.client.get());

    if (obs::EnergyLedger* led = obs::current_ledger()) {
        for (HotspotClient* c : clients) {
            for (BurstChannel* ch : c->channels()) ch->wnic().attach_ledger(led, c->id());
        }
    }

    if (options.rejoin_enabled) {
        for (std::size_t i = 0; i < clients.size(); ++i) {
            agents.push_back(std::make_unique<RejoinAgent>(
                sim, server, *clients[i], options.rejoin,
                world.root.fork(910 + static_cast<std::uint64_t>(i))));
            agents.back()->set_on_rejoined([&server, stored](ClientId cid) {
                if (stored(cid)) server.set_stored_content(cid, true);
            });
            world.clients[i].agent = agents.back().get();
        }
        server.set_on_client_lost([&agents](ClientId cid) { agents[cid - 1]->on_lost(); });
    }

    // Admission, at t = 0 or when a late joiner shows up mid-run: a refused
    // client stays unregistered unless its rejoin agent keeps trying.
    const auto admit = [&server, &agents, stored](HotspotClient& c) {
        if (!server.try_register(c)) {
            if (!agents.empty()) agents[c.id() - 1]->on_lost();
            return false;
        }
        if (stored(c.id())) server.set_stored_content(c.id(), true);
        return true;
    };
    for (HotspotClient* c : clients) {
        const Time join_at = plan.registration_at(c->id());
        if (join_at.is_zero()) {
            admit(*c);
        } else {
            sim.post_at(join_at, [admit, c] {
                if (admit(*c)) c->playout().start();
            });
        }
    }

    // The injector is built only when the plan is non-empty: a faults-off
    // run schedules nothing extra and consumes no extra randomness.
    std::unique_ptr<fault::FaultInjector> injector;
    if (!plan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(sim, plan, world.root.fork(900));
        bind_hotspot_faults(*injector, world);
        injector->core().schedule_drop = [&server, &world](double p, Time until) {
            server.inject_schedule_drop(p, until, world.root.fork(902));
        };
        injector->attach_trace(options.fault_trace);
    }

    if (options.on_start) options.on_start(sim, server, clients);
    for (std::size_t i = 0; i < clients.size(); ++i) {
        const bool playout = rows[i].feed != Feed::web;  // web browsing has no playout QoS
        clients[i]->start(playout && plan.registration_at(clients[i]->id()).is_zero());
    }
    for (auto& p : proxies) p->start();
    for (auto& s : sources) s->start();
    server.start();
    if (injector) injector->arm();
    sim.run_until(spec.duration());
    for (HotspotClient* c : clients) {
        for (BurstChannel* ch : c->channels()) ch->wnic().settle_ledger();
    }

    if (options.inspect) options.inspect(sim, server, clients);

    ScenarioResult result = world.result();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (web_feed[i] == nullptr) continue;
        // No playout: QoS is the share of the generated bytes delivered.
        ClientMetrics& m = result.clients[i];
        const DataSize generated = web_feed[i]->bytes_generated();
        m.qos = generated.is_zero()
                    ? 1.0
                    : std::min(1.0, static_cast<double>(m.received.bytes()) /
                                        static_cast<double>(generated.bytes()));
        m.underruns = 0;
    }
    result.recovery = server.recovery_report();
    for (const auto& a : agents) {
        result.recovery.rejoin_attempts += a->attempts();
        result.recovery.rejoins += a->rejoins();
        for (double t : a->recover_times_s()) result.recovery.recover_times_s.push_back(t);
    }
    for (const auto& p : proxies) result.degradation.push_back(p->report());
    if (injector) result.faults_injected = injector->injected_total();
    if (obs::MetricsRegistry* reg = obs::current()) world.publish_metrics(*reg);
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

}  // namespace wlanps::core
