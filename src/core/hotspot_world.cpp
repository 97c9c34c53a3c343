#include "core/hotspot_world.hpp"

#include <algorithm>
#include <array>
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
#include "obs/health_report.hpp"
#include "obs/hooks.hpp"
#include "obs/watchdog.hpp"
#include "phy/calibration.hpp"
#include "phy/wlan_nic.hpp"
#include "sim/assert.hpp"
#include "sim/random.hpp"
#include "sim/sharded.hpp"
#include "traffic/source.hpp"

#if defined(WLANPS_OBS_ENABLED)
#include "obs/kernel_profile.hpp"
#endif

namespace wlanps::core {

namespace {

/// Control-plane cadence (mirrors ServerConfig's default plan interval).
constexpr Time kPlanInterval = Time::from_ms(100);
/// Margin between "earliest feasible" and the granted burst start, so the
/// grant's wake event is strictly in the receiving shard's future.
constexpr Time kStartMargin = Time::from_ms(1);
/// Modeled service slack over the clean-channel transfer time: absorbs
/// retries so consecutive reservation slots on one cell rarely overlap.
constexpr double kServiceSlack = 1.25;
/// Guard gap between consecutive reservations on one cell interface.
constexpr Time kSlotGap = Time::from_ms(2);

/// Schedule-ahead burst planner: the control plane of the sharded
/// hotspot, living entirely on shard 0.
///
/// Unlike HotspotServer — which waits for a burst completion before
/// dispatching the next burst on that interface (zero lookahead, hence
/// unshardable) — this planner books bursts against per-(cell, interface)
/// reservation timelines using modeled service times, issues grants one
/// cross-shard lookahead ahead, and folds actual completions back into
/// its buffer model when they arrive (again one lookahead later).  The
/// feedback latency is microscopic next to the multi-second burst period,
/// so the model stays tight while every message obeys the conservative-
/// sync contract.
class GrantPlanner {
public:
    struct Entry {
        HotspotClient* client = nullptr;  // lives on `shard`
        std::size_t shard = 0;
        std::size_t channel_index = 0;
        bool on_bt = false;
        // Captured at admission (the planner never touches the client's
        // shard-local state during the run):
        Rate stream_rate;
        DataSize client_buffer;
        Time playback_start;  // modeled drain start (conservative: preroll)
        Rate goodput;
        Time wake_latency;
        double weight = 1.0;
        int priority = 1;
        // Planner state:
        bool outstanding = false;
        DataSize delivered;  // completion-confirmed payload
        DataSize in_flight;  // granted, not yet confirmed
        std::uint64_t bursts_granted = 0;
        std::uint64_t deadline_misses = 0;
        /// Late joiners (delayed_registration faults): no grants before this.
        Time active_from = Time::zero();
        /// Crash back-off: consecutive zero-delivery completions put the
        /// client on probation so the planner stops spamming a corpse.
        int zero_streak = 0;
        Time probation_until = Time::zero();
    };

    GrantPlanner(sim::ShardedSimulator& shx, const HotspotConfig& options)
        : shx_(shx),
          options_(options),
          scheduler_(make_scheduler(options.scheduler)),
          timelines_(shx.shard_count()),
          plan_tick_(shx.shard(0), kPlanInterval, [this] { plan(); }) {}

    /// Admit client \p id (entries must be added in id order, id = index+1).
    void add_client(ClientId id, Entry entry) {
        WLANPS_REQUIRE(static_cast<std::size_t>(id) == entries_.size() + 1);
        WLANPS_REQUIRE(entry.client != nullptr && !entry.goodput.is_zero());
        entries_.push_back(entry);
    }

    void start() { plan_tick_.start_at(Time::zero()); }

    [[nodiscard]] const Entry& entry(ClientId id) const { return entries_[id - 1]; }
    [[nodiscard]] std::uint64_t deadline_misses() const {
        std::uint64_t total = 0;
        for (const Entry& e : entries_) total += e.deadline_misses;
        return total;
    }

private:
    [[nodiscard]] DataSize effective_burst(const Entry& e) const {
        return std::max(options_.target_burst,
                        e.stream_rate.data_in(options_.target_burst_period));
    }

    [[nodiscard]] static Time scaled_transfer(Rate goodput, DataSize size) {
        return Time::from_seconds(static_cast<double>(size.bits()) / goodput.bps() *
                                  kServiceSlack);
    }

    /// Modeled client buffer level at time \p t (may be negative if the
    /// model predicts an underrun).
    [[nodiscard]] DataSize modeled_level(const Entry& e, Time t) const {
        const DataSize banked = e.delivered + e.in_flight;
        if (t <= e.playback_start) return banked;
        return banked - e.stream_rate.data_in(t - e.playback_start);
    }

    /// When the modeled buffer hits empty — the burst completion deadline.
    [[nodiscard]] Time modeled_underrun(const Entry& e) const {
        return e.playback_start + e.stream_rate.transmit_time(e.delivered + e.in_flight);
    }

    [[nodiscard]] Time& timeline(const Entry& e) {
        return timelines_[e.shard][e.on_bt ? 1 : 0];
    }

    void plan() {
        const Time now = shx_.shard(0).now();
        // Grants are delivered one lookahead out; feasible burst starts
        // must clear that delivery bound.
        std::vector<BurstRequest> pending;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry& e = entries_[i];
            if (e.outstanding) continue;
            if (now < e.active_from || now < e.probation_until) continue;
            const Time start_min = now + kShardLookahead + e.wake_latency + kStartMargin;
            DataSize burst = effective_burst(e);
            const Time done_est = start_min + scaled_transfer(e.goodput, burst);
            const DataSize level = modeled_level(e, done_est);
            // Stay one burst ahead of the drain; stop when the client
            // buffer could not absorb another full burst.
            if (level >= burst) continue;
            const DataSize headroom =
                e.client_buffer - std::max(level, DataSize::zero());
            burst = std::min(burst, headroom);
            if (burst <= DataSize::zero()) continue;
            BurstRequest r;
            r.client = static_cast<ClientId>(i + 1);
            r.size = burst;
            r.deadline = modeled_underrun(e);
            r.weight = e.weight;
            r.priority = e.priority;
            r.created_at = now;
            pending.push_back(r);
        }
        // Scheduler-ordered reservation: the configured policy (EDF, WFQ,
        // ...) decides who books the earlier slots on a contended cell.
        while (!pending.empty()) {
            const std::size_t k = scheduler_->pick(pending, now);
            const BurstRequest r = pending[k];
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
            Entry& e = entries_[r.client - 1];
            const Time start_min = now + kShardLookahead + e.wake_latency + kStartMargin;
            const Time start = std::max(start_min, timeline(e));
            const Time service = scaled_transfer(e.goodput, r.size);
            timeline(e) = start + service + kSlotGap;
            scheduler_->on_dispatch(r, service);
            issue(e, r, start);
        }
    }

    void issue(Entry& e, const BurstRequest& r, Time start) {
        e.outstanding = true;
        e.in_flight += r.size;
        ++e.bursts_granted;
        GrantPlanner* self = this;
        HotspotClient* client = e.client;
        const std::size_t shard = e.shard;
        const std::size_t channel = e.channel_index;
        const ClientId cid = r.client;
        const DataSize size = r.size;
        const Time deadline = r.deadline;
        const Time now = shx_.shard(0).now();
        shx_.post_cross(
            0, shard, now + kShardLookahead,
            [self, shard, client, channel, cid, size, start, deadline] {
                client->execute_burst(
                    channel, size, start,
                    [self, shard, cid, deadline](const BurstChannel::Result& result) {
                        sim::ShardedSimulator& shx = self->shx_;
                        const Time done_at = shx.shard(shard).now();
                        shx.post_cross(
                            shard, 0, done_at + kShardLookahead,
                            [self, cid, done_at, deadline,
                             delivered = result.delivered] {
                                self->complete(cid, delivered, done_at, deadline);
                            });
                    });
            });
    }

    void complete(ClientId cid, DataSize delivered, Time completed_at, Time deadline) {
        Entry& e = entries_[cid - 1];
        e.outstanding = false;
        e.in_flight = DataSize::zero();
        e.delivered += delivered;
        if (completed_at > deadline) ++e.deadline_misses;
        if (delivered.is_zero()) {
            // A burst reached a crashed device (zero-delivery completion).
            // Three in a row: back off ~1 s before trying again, so a dead
            // client costs one grant per second instead of one per tick.
            if (++e.zero_streak >= 3) {
                e.probation_until = completed_at + Time::from_seconds(1.0);
                e.zero_streak = 0;
            }
        } else {
            e.zero_streak = 0;
        }
    }

    sim::ShardedSimulator& shx_;
    const HotspotConfig& options_;
    std::unique_ptr<Scheduler> scheduler_;
    std::vector<Entry> entries_;  // index = client id - 1
    /// Per-(cell shard, interface) reservation frontier: [0] = WLAN, [1] = BT.
    std::vector<std::array<Time, 2>> timelines_;
    sim::PeriodicEvent plan_tick_;
};

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

// ---- the one world builder: cells, client build, fault binder ---------------------

/// One client as its cell's fault hooks reach it.
struct CellClient {
    HotspotClient* client = nullptr;
    phy::WlanNic* nic = nullptr;             ///< null without WLAN
    channel::WirelessLink* wlink = nullptr;  ///< null without WLAN
    bt::SlaveId sid = 0;                     ///< slave id on the cell piconet, if any
    std::size_t wlan_channel = 0;            ///< channel indices on the client
    std::size_t bt_channel = 0;
    RejoinAgent* agent = nullptr;            ///< told of crashes; null without rejoin
};

/// One AP cell: the simulator its devices live on, its Bluetooth piconet
/// (null without bt_available), and its clients in id order.
struct HotspotCell {
    sim::Simulator* sim = nullptr;
    std::unique_ptr<bt::Piconet> piconet;
    std::vector<CellClient> clients;
};

/// What both hotspot worlds build: the cells, and every client's devices,
/// owned across the cells.
struct HotspotWorld {
    const ScenarioSpec& spec;
    sim::Random root;
    std::vector<HotspotCell> cells;
    std::vector<std::unique_ptr<HotspotClient>> clients;  // id order
    std::vector<std::unique_ptr<phy::WlanNic>> wlan_nics;
    std::vector<std::unique_ptr<channel::WirelessLink>> wlan_links;
    std::vector<std::unique_ptr<bt::BtSlave>> slaves;

    HotspotWorld(const ScenarioSpec& s, std::uint64_t seed) : spec(s), root(seed) {}

    /// Add a cell on \p sim; with bt_available its piconet draws RNG
    /// stream \p piconet_stream.
    void add_cell(sim::Simulator& sim, std::uint64_t piconet_stream) {
        HotspotCell& cell = cells.emplace_back();
        cell.sim = &sim;
        if (spec.hotspot_config().bt_available) {
            cell.piconet = std::make_unique<bt::Piconet>(sim, bt::PiconetConfig{},
                                                         root.fork(piconet_stream));
        }
    }

    /// Build client \p id of \p row in cells[\p cell]: its WLAN NIC and
    /// link (RNG stream 300 + row.stream) with wlan_available, its slave on
    /// the cell piconet (400 + row.stream) with bt_available, and its fault
    /// routing.
    CellClient& add_client(std::size_t cell, ClientId id, const ClientRow& row) {
        const StreamConfig& config = spec.stream();
        const HotspotConfig& options = spec.hotspot_config();
        QosContract contract = contract_for(row.feed, options);
        if (options.contract_tweak) options.contract_tweak(id, contract);
        HotspotCell& home = cells[cell];
        sim::Simulator& sim = *home.sim;
        CellClient added;
        auto client = std::make_unique<HotspotClient>(sim, id, contract);
        if (options.wlan_available) {
            auto nic = std::make_unique<phy::WlanNic>(sim, config.wlan_nic,
                                                      phy::WlanNic::State::idle);
            auto link = std::make_unique<channel::WirelessLink>(config.wlan_link,
                                                                root.fork(300 + row.stream));
            added.wlan_channel = client->add_channel(
                std::make_unique<WlanBurstChannel>(sim, *nic, link.get()));
            added.nic = nic.get();
            added.wlink = link.get();
            wlan_nics.push_back(std::move(nic));
            wlan_links.push_back(std::move(link));
        }
        if (home.piconet) {
            auto slave = std::make_unique<bt::BtSlave>(sim, config.bt_nic,
                                                       phy::BtNic::State::active);
            added.sid = home.piconet->join(*slave);
            home.piconet->set_link(added.sid, config.bt_link, root.fork(400 + row.stream));
            if (!options.bt_quality_script.empty()) {
                home.piconet->set_link_script(added.sid, options.bt_quality_script);
            }
            added.bt_channel = client->add_channel(
                std::make_unique<BtBurstChannel>(*home.piconet, added.sid, *slave));
            slaves.push_back(std::move(slave));
        }
        added.client = client.get();
        clients.push_back(std::move(client));
        return home.clients.emplace_back(added);
    }

    /// Per-client ground truth, in id order.
    [[nodiscard]] ScenarioResult result() const {
        ScenarioResult r;
        r.label = spec.label();
        for (const auto& c : clients) {
            r.clients.push_back(make_client_metrics(c->wnic_average_power(), c->wnic_energy(),
                                                    c->playout(), c->bytes_received()));
        }
        return r;
    }

    void publish_metrics(obs::MetricsRegistry& reg) {
        for (auto& nic : wlan_nics) nic->publish_metrics(reg, "phy.wlan");
        for (auto& s : slaves) s->nic().publish_metrics(reg, "phy.bt");
    }
};

/// Bind \p injector to \p cell's clients: WLAN radio lockups and stuck
/// wakes (with \p wlan), per-interface link fault windows, and crash and
/// revive, each also told to the client's rejoin agent if it has one.
/// Every hook touches \p cell's objects only, so a per-shard injector
/// stays shard-local.
void bind_hotspot_faults(fault::FaultInjector& injector, const HotspotCell& cell, bool wlan) {
    // Apply \p fn to each client \p target names (0 = every client).
    const auto each = [&cell](std::uint32_t target, const auto& fn) {
        for (const CellClient& c : cell.clients) {
            if (target == 0 || c.client->id() == target) fn(c);
        }
    };
    if (wlan) {
        injector.phy().nic_lockup = [each](std::uint32_t target, Time until) {
            each(target, [&](const CellClient& c) { c.nic->inject_lockup(until); });
        };
        injector.phy().wake_stuck = [each](std::uint32_t target, Time extra) {
            each(target, [&](const CellClient& c) { c.nic->inject_wake_stuck(extra); });
        };
    }
    injector.net().fault_window = [each, &cell](std::uint32_t target, fault::FaultSpec::Itf itf,
                                                double p, Time until) {
        const Time now = cell.sim->now();
        if (itf != fault::FaultSpec::Itf::bt) {
            each(target, [&](const CellClient& c) {
                if (c.wlink != nullptr) c.wlink->add_fault_window(now, until, p);
            });
        }
        if (itf != fault::FaultSpec::Itf::wlan && cell.piconet) {
            each(target, [&](const CellClient& c) {
                if (auto* link = cell.piconet->link(c.sid)) link->add_fault_window(now, until, p);
            });
        }
    };
    injector.core().crash = [each](std::uint32_t target) {
        each(target, [](const CellClient& c) {
            c.client->crash();
            if (c.agent != nullptr) c.agent->on_crashed();
        });
    };
    injector.core().revive = [each](std::uint32_t target) {
        each(target, [](const CellClient& c) {
            c.client->revive();
            if (c.agent != nullptr) c.agent->on_revived();
        });
    };
}

// ---- the single-queue world -------------------------------------------------------

/// One HotspotServer over one cell.  RNG streams: piconet 100, rows
/// 300/400/500 + row.stream, injector 900, schedule drops 902, rejoin
/// agents 910 + index.
ScenarioResult sim_single_queue(const ScenarioSpec& spec, const std::vector<ClientRow>& rows,
                                std::uint64_t seed) {
    const HotspotConfig& options = spec.hotspot_config();
    const fault::FaultPlan& plan = spec.stream().fault_plan;
    sim::Simulator sim;
    HotspotWorld world(spec, seed);
    world.add_cell(sim, 100);  // one Hotspot radio set, shared by every client
    HotspotCell& cell = world.cells.front();
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
        HotspotClient& client = *world.add_client(0, id, row).client;
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
    const auto& clients = world.clients;

    // Lives through the whole run: on_start callbacks may schedule probes
    // that reference it mid-simulation.
    std::vector<HotspotClient*> raw;
    raw.reserve(clients.size());
    for (const auto& c : clients) raw.push_back(c.get());

    if (obs::EnergyLedger* led = obs::current_ledger()) {
        for (const auto& c : clients) {
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
            cell.clients[i].agent = agents.back().get();
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
    for (const auto& c : clients) {
        const Time join_at = plan.registration_at(c->id());
        if (join_at.is_zero()) {
            admit(*c);
        } else {
            sim.post_at(join_at, [admit, c = c.get()] {
                if (admit(*c)) c->playout().start();
            });
        }
    }

    // The injector is built only when the plan is non-empty: a faults-off
    // run schedules nothing extra and consumes no extra randomness.
    std::unique_ptr<fault::FaultInjector> injector;
    if (!plan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(sim, plan, world.root.fork(900));
        bind_hotspot_faults(*injector, cell, options.wlan_available);
        injector->core().schedule_drop = [&server, &world](double p, Time until) {
            server.inject_schedule_drop(p, until, world.root.fork(902));
        };
        injector->attach_trace(options.fault_trace);
    }

    if (options.on_start) options.on_start(sim, server, raw);
    for (std::size_t i = 0; i < clients.size(); ++i) {
        const bool playout = rows[i].feed != Feed::web;  // web browsing has no playout QoS
        clients[i]->start(playout && plan.registration_at(clients[i]->id()).is_zero());
    }
    for (auto& p : proxies) p->start();
    for (auto& s : sources) s->start();
    server.start();
    if (injector) injector->arm();
    sim.run_until(spec.duration());
    for (const auto& c : clients) {
        for (BurstChannel* ch : c->channels()) ch->wnic().settle_ledger();
    }

    if (options.inspect) options.inspect(sim, server, raw);

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

// ---- the sharded world ------------------------------------------------------------

/// One cell per shard on the sharded kernel, driven by the GrantPlanner on
/// shard 0.  RNG streams: piconets 1000 + shard, rows 300/400 + row.stream
/// (the single-queue ids, so a client's draws do not depend on the shard
/// layout), injectors 900 + shard.
ScenarioResult sim_sharded(const ScenarioSpec& spec, const std::vector<ClientRow>& rows,
                           std::uint64_t seed) {
    const fault::FaultPlan& plan = spec.stream().fault_plan;
    const HotspotConfig& options = spec.hotspot_config();
    const ShardingConfig& sharding = options.sharding;
    const auto shard_count = static_cast<std::size_t>(sharding.shards);
    sim::ShardedConfig kernel;
    kernel.shards = shard_count;
    kernel.threads = static_cast<std::size_t>(sharding.threads);
    kernel.lookahead = kShardLookahead;
    // Worst case per flush: one grant + one completion per client.
    kernel.mailbox_capacity = std::max<std::size_t>(1024, rows.size() * 4);
    sim::ShardedSimulator shx(kernel);

#if defined(WLANPS_OBS_ENABLED)
    // Per-quantum shard attribution: attached whenever a metrics registry
    // is scoped or the caller asked for a health rollup.
    std::unique_ptr<obs::ShardTelemetry> telemetry;
    if (obs::current() != nullptr || options.health != nullptr) {
        telemetry = std::make_unique<obs::ShardTelemetry>(shard_count);
        shx.attach_telemetry(telemetry.get());
    }

    // Per-shard kernel profiles: each shard records into its own registry
    // (single writer per quantum), folded into the run registry in shard
    // order after the run — deterministic merge, no cross-thread sharing.
    std::vector<std::unique_ptr<obs::MetricsRegistry>> shard_registries;
    std::vector<std::unique_ptr<obs::KernelProfile>> shard_profiles;
    if (obs::current() != nullptr) {
        for (std::size_t s = 0; s < shard_count; ++s) {
            shard_registries.push_back(std::make_unique<obs::MetricsRegistry>());
            shard_profiles.push_back(
                std::make_unique<obs::KernelProfile>(*shard_registries.back()));
            shx.shard(s).attach_profile(shard_profiles.back().get());
        }
    }
#endif

    // One cell per shard: each is its own AP + Bluetooth radio.
    HotspotWorld world(spec, seed);
    for (std::size_t s = 0; s < shard_count; ++s) world.add_cell(shx.shard(s), 1000 + s);
    // Static interface admission per cell: committed stream rate per
    // (cell, interface); a client goes to BT (the paper's low-power pick
    // for MP3-rate streams) while the cell's BT capacity holds.
    std::vector<Rate> bt_committed(shard_count);

    GrantPlanner planner(shx, options);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto id = static_cast<ClientId>(i + 1);
        const std::size_t s = i % shard_count;
        const CellClient& c = world.add_client(s, id, rows[i]);
        const QosContract& contract = c.client->contract();
        c.client->set_notify_crash_drops(true);  // the planner has no repair watchdog

        // Interface selection, decided at admission (the schedule-ahead
        // plane does not migrate mid-run): BT while the cell's piconet
        // capacity holds, else WLAN.
        bool use_bt = false;
        if (options.bt_available) {
            const Rate bt_peak = c.client->channel(c.bt_channel).goodput();
            const bool fits =
                (bt_committed[s] + contract.stream_rate).bps() <=
                options.utilization_cap * bt_peak.bps();
            use_bt = fits || !options.wlan_available;
            if (use_bt) bt_committed[s] += contract.stream_rate;
        }
        const std::size_t channel_index = use_bt ? c.bt_channel : c.wlan_channel;

        GrantPlanner::Entry entry;
        entry.client = c.client;
        entry.shard = s;
        entry.channel_index = channel_index;
        entry.on_bt = use_bt;
        entry.stream_rate = contract.stream_rate;
        entry.client_buffer = contract.client_buffer;
        entry.playback_start = contract.preroll;
        entry.goodput = c.client->channel(channel_index).goodput();
        entry.wake_latency = c.client->channel(channel_index).wnic().wake_latency();
        entry.weight = contract.weight;
        entry.priority = contract.priority;
        // Late joiners (delayed_registration): the planner issues no grant
        // before the registration time, and playout starts only then.
        entry.active_from = plan.registration_at(id);
        planner.add_client(id, entry);
    }

    for (std::size_t i = 0; i < world.clients.size(); ++i) {
        HotspotClient* c = world.clients[i].get();
        const Time join_at = plan.registration_at(c->id());
        c->start(/*start_playout=*/join_at.is_zero());
        if (!join_at.is_zero()) {
            shx.shard(i % shard_count).post_at(join_at, [c] { c->playout().start(); });
        }
    }

    // Per-shard fault injectors: the plan is split so each injector holds
    // only the faults whose targets live on its shard (population-wide
    // faults replicate everywhere), and every hook touches shard-local
    // state only.
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    if (!plan.empty()) {
        for (std::size_t s = 0; s < shard_count; ++s) {
            fault::FaultPlan shard_plan;
            for (const fault::FaultSpec& f : plan.specs()) {
                if (f.kind == fault::FaultKind::delayed_registration) continue;
                if (f.client != 0 && static_cast<std::size_t>(f.client - 1) % shard_count != s) {
                    continue;
                }
                shard_plan.add(f);
            }
            if (shard_plan.empty()) continue;
            injectors.push_back(std::make_unique<fault::FaultInjector>(
                shx.shard(s), shard_plan, world.root.fork(900 + s)));
            bind_hotspot_faults(*injectors.back(), world.cells[s], options.wlan_available);
        }
    }

    planner.start();
    for (auto& inj : injectors) inj->arm();
    shx.run_until(spec.duration());

    ScenarioResult result = world.result();
    for (const auto& inj : injectors) result.faults_injected += inj->injected_total();

    if (obs::MetricsRegistry* reg = obs::current()) {
        shx.publish_metrics(*reg);
        reg->counter("sim.kernel.events_dispatched").add(shx.total_dispatched());
        reg->counter("core.sharded.deadline_misses").add(planner.deadline_misses());
        world.publish_metrics(*reg);
#if defined(WLANPS_OBS_ENABLED)
        for (auto& shard_reg : shard_registries) {
            const obs::MetricsSnapshot snap = shard_reg->snapshot();
            for (const auto& e : snap.entries()) {
                if (const obs::Counter* c = snap.counter(e.key)) {
                    reg->counter(e.key).merge_from(*c);
                } else if (const obs::Gauge* g = snap.gauge(e.key)) {
                    reg->gauge(e.key).merge_from(*g);
                } else if (const obs::Histogram* h = snap.histogram(e.key)) {
                    reg->histogram(e.key).merge_from(*h);
                }
            }
        }
#endif
    }
    if (options.health != nullptr) {
        shx.fill_health(*options.health);
        options.health->scope = "sharded-hotspot";
        if (const obs::Watchdog* wd = obs::current_watchdog()) {
            options.health->set_watchdog(*wd);
        }
    }
    record_client_obs(result);
    return result;
}

}  // namespace

ScenarioResult sim_hotspot(const ScenarioSpec& spec, std::uint64_t seed) {
    WLANPS_REQUIRE_MSG(spec.policy() == Policy::hotspot, "sim_hotspot runs hotspot specs only");
    const std::vector<ClientRow> rows = client_rows(spec);
    if (spec.hotspot_config().sharding.enabled()) return sim_sharded(spec, rows, seed);
    return sim_single_queue(spec, rows, seed);
}

}  // namespace wlanps::core
