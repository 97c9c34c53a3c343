#include "core/scenarios.hpp"

#include <memory>
#include <utility>

#include "bt/piconet.hpp"
#include "core/hotspot_world.hpp"
#include "core/scenario_obs.hpp"
#include "fault/injector.hpp"
#include "fed/federation.hpp"
#include "mac/access_point.hpp"
#include "mac/ecmac.hpp"
#include "mac/station.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/hooks.hpp"
#include "policy/world.hpp"
#include "sim/assert.hpp"
#include "traffic/playout.hpp"
#include "traffic/source.hpp"

namespace wlanps::core {

namespace {

using fault::FaultKind;

constexpr std::uint32_t bit(FaultKind kind) { return 1u << static_cast<unsigned>(kind); }
constexpr std::uint32_t kRadioFaults = bit(FaultKind::nic_lockup) | bit(FaultKind::wake_stuck);
constexpr std::uint32_t kLinkFaults = bit(FaultKind::blackout) | bit(FaultKind::corruption);
constexpr std::uint32_t kClientFaults = bit(FaultKind::client_crash) |
                                        bit(FaultKind::silent_leave) |
                                        bit(FaultKind::delayed_registration);

}  // namespace

FaultSurface injectable_faults(const ScenarioSpec& spec) {
    switch (spec.policy()) {
        case Policy::cam:
            if (!spec.has_power_policy()) {
                return {kRadioFaults | kLinkFaults,
                        "cam stations route phy and link hooks only (nic-lockup, wake-stuck, "
                        "blackout, corruption)"};
            }
            if (spec.power_policy_config().kind == policy::PolicyKind::pamas) {
                return {kRadioFaults | bit(FaultKind::beacon_loss) | kLinkFaults,
                        "pamas routes phy, beacon, and link hooks (nic-lockup, wake-stuck, "
                        "beacon-loss, blackout, corruption)"};
            }
            if (spec.power_policy_config().micro_nap.nap_on_backoff) {
                return {bit(FaultKind::nic_lockup) | bit(FaultKind::beacon_loss) | kLinkFaults,
                        "micro_nap routes phy, beacon, and link hooks (nic-lockup, "
                        "beacon-loss, blackout, corruption); wake-stuck would stretch a "
                        "backoff-nap resume past the station's own DCF fire — disable "
                        "micro_nap.nap_on_backoff to inject it"};
            }
            return {kRadioFaults | bit(FaultKind::beacon_loss) | kLinkFaults,
                    "micro_nap routes phy, beacon, and link hooks (nic-lockup, wake-stuck, "
                    "beacon-loss, blackout, corruption)"};
        case Policy::psm:
            return {kRadioFaults | bit(FaultKind::beacon_loss) | bit(FaultKind::poll_drop) |
                        kLinkFaults,
                    "psm stations route phy, MAC, and link hooks (nic-lockup, wake-stuck, "
                    "beacon-loss, poll-drop, blackout, corruption)"};
        case Policy::hotspot: {
            // The Hotspot has no beacon/PS-Poll MAC; its radio hooks exist
            // only with a WLAN interface, and the sharded control plane has
            // no schedule-message path.
            if (spec.has_mix()) {
                return {0u, "a mixed-workload hotspot binds no fault hooks — use a "
                            "single-workload hotspot (ScenarioSpec::hotspot())"};
            }
            const HotspotConfig& h = spec.hotspot_config();
            const std::uint32_t radio = h.wlan_available ? kRadioFaults : 0u;
            if (h.sharding.enabled()) {
                return {radio | kLinkFaults | kClientFaults,
                        "the sharded hotspot routes WLAN radio (with wlan_available), link, "
                        "and client hooks (nic-lockup, wake-stuck, blackout, corruption, "
                        "crash, silent-leave, late-join) — use the single-queue hotspot "
                        "(shards = 0) for schedule-drop"};
            }
            return {radio | kLinkFaults | kClientFaults | bit(FaultKind::schedule_drop),
                    "the hotspot routes WLAN radio (with wlan_available), link, client, and "
                    "server hooks (nic-lockup, wake-stuck, blackout, corruption, crash, "
                    "silent-leave, late-join, schedule-drop) — it has no beacon/PS-Poll MAC"};
        }
        case Policy::federation:
            return {bit(FaultKind::nic_lockup) | kClientFaults,
                    "slab clients expose nic-lockup, crash, silent-leave, and late-join "
                    "only — use a hotspot scenario for MAC/link-level kinds"};
        case Policy::ecmac:
        case Policy::bt:
            break;
    }
    return {0u, "this world binds no fault hooks — use cam, psm, micro_nap, pamas, "
                "hotspot, or federation"};
}

namespace {

traffic::PlayoutBuffer::Config mp3_playout() {
    traffic::PlayoutBuffer::Config c;
    c.frame_size = phy::calibration::kMp3FrameSize;
    c.frame_interval = phy::calibration::kMp3FrameInterval;
    c.preroll = Time::from_seconds(2);
    c.capacity = DataSize::from_kilobytes(2048);
    c.start_threshold_frames = 38;  // ~1 s of audio buffered before playing
    return c;
}

/// Bind the injector hooks of a BSS world (one AP, stations 1..N with
/// radios \p nics) for the kinds \p faults accepts: per-station radio
/// faults, AP beacon loss and PS-Poll drops, per-station link windows.
void bind_bss_faults(fault::FaultInjector& injector, const FaultSurface& faults,
                     sim::Simulator& sim, mac::Bss& bss, mac::AccessPoint& ap,
                     std::vector<phy::WlanNic*> nics, const sim::Random& root) {
    if (faults.accepts(FaultKind::nic_lockup)) {
        injector.phy().nic_lockup = [nics](std::uint32_t target, Time until) {
            for (std::size_t i = 0; i < nics.size(); ++i) {
                if (target == 0 || target == i + 1) nics[i]->inject_lockup(until);
            }
        };
    }
    if (faults.accepts(FaultKind::wake_stuck)) {
        injector.phy().wake_stuck = [nics](std::uint32_t target, Time extra) {
            for (std::size_t i = 0; i < nics.size(); ++i) {
                if (target == 0 || target == i + 1) nics[i]->inject_wake_stuck(extra);
            }
        };
    }
    if (faults.accepts(FaultKind::beacon_loss)) {
        injector.mac().beacon_loss = [&ap](Time until) { ap.suppress_beacons(until); };
    }
    if (faults.accepts(FaultKind::poll_drop)) {
        injector.mac().poll_drop = [&ap, &root](double p, Time until) {
            ap.inject_poll_drop(p, until, root.fork(901));
        };
    }
    injector.net().fault_window = [&bss, &sim, clients = nics.size()](
                                      std::uint32_t target, fault::FaultSpec::Itf itf,
                                      double p, Time until) {
        if (itf == fault::FaultSpec::Itf::bt) return;  // no BT in a BSS world
        for (std::size_t i = 0; i < clients; ++i) {
            if (target != 0 && target != i + 1) continue;
            if (auto* link = bss.link(static_cast<mac::StationId>(i + 1))) {
                link->add_fault_window(sim.now(), until, p);
            }
        }
    };
}

/// The 802.11 BSS: one AP streaming MP3 to every station, all awake (CAM,
/// \p psm null) or in power-save mode (TIM beacons + PS-Polls).
ScenarioResult sim_wlan_bss(const StreamConfig& config, const PsmConfig* psm,
                            const FaultSurface& faults) {
    const PsmConfig ps = psm != nullptr ? *psm : PsmConfig{};
    sim::Simulator sim;
    sim::Random root(config.seed);
    mac::Bss bss(sim);
    mac::AccessPointConfig ap_cfg;
    ap_cfg.mode = psm != nullptr ? mac::ApMode::psm : mac::ApMode::cam;
    ap_cfg.beacon_interval = ps.beacon_interval;
    ap_cfg.aggregate_limit = ps.aggregate_limit;
    mac::AccessPoint ap(sim, bss, ap_cfg, mac::DcfConfig{}, root.fork(100));

    std::vector<std::unique_ptr<mac::WlanStation>> stations;
    std::vector<std::unique_ptr<traffic::PlayoutBuffer>> playouts;
    std::vector<std::unique_ptr<traffic::Mp3Source>> sources;
    std::vector<phy::WlanNic*> nics;

    for (int i = 0; i < config.clients; ++i) {
        const auto id = static_cast<mac::StationId>(i + 1);
        mac::StationConfig st_cfg;
        st_cfg.mode = psm != nullptr ? mac::StationMode::psm : mac::StationMode::cam;
        st_cfg.listen_interval = ps.listen_interval;
        auto st = std::make_unique<mac::WlanStation>(sim, bss, id, st_cfg, mac::DcfConfig{},
                                                     config.wlan_nic, root.fork(200 + i));
        if (obs::EnergyLedger* led = obs::current_ledger()) {
            st->wlan_nic().attach_ledger(led, static_cast<std::uint32_t>(id));
        }
        bss.set_link(id, config.wlan_link, root.fork(300 + i));
        auto playout = std::make_unique<traffic::PlayoutBuffer>(sim, mp3_playout());
        st->set_receive_callback(
            [p = playout.get()](DataSize size, Time) { p->on_data(size); });
        auto src = std::make_unique<traffic::Mp3Source>(
            sim, [&ap, id](DataSize size) { ap.send(id, size); });
        nics.push_back(&st->wlan_nic());
        stations.push_back(std::move(st));
        playouts.push_back(std::move(playout));
        sources.push_back(std::move(src));
    }

    std::unique_ptr<fault::FaultInjector> injector;
    if (!config.fault_plan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(sim, config.fault_plan,
                                                          root.fork(900));
        bind_bss_faults(*injector, faults, sim, bss, ap, std::move(nics), root);
    }

    ap.start();
    for (auto& st : stations) st->start(ap.config().beacon_interval, ap.config().beacon_interval);
    for (auto& p : playouts) p->start();
    for (auto& s : sources) s->start();
    if (injector) injector->arm();
    sim.run_until(config.duration);
    for (auto& st : stations) st->wlan_nic().settle_ledger();

    ScenarioResult result;
    result.label = psm != nullptr ? "wlan-psm" : "wlan-cam";
    if (injector) result.faults_injected = injector->injected_total();
    for (std::size_t i = 0; i < stations.size(); ++i) {
        result.clients.push_back(make_client_metrics(stations[i]->average_power(),
                                                     stations[i]->energy_consumed(),
                                                     *playouts[i],
                                                     stations[i]->bytes_received()));
    }
    if (obs::MetricsRegistry* reg = obs::current()) {
        for (auto& st : stations) st->wlan_nic().publish_metrics(*reg, "phy.wlan");
    }
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

ScenarioResult sim_ecmac(const StreamConfig& config, Time superframe) {
    WLANPS_REQUIRE(config.clients >= 1);
    sim::Simulator sim;
    sim::Random root(config.seed);
    mac::Bss bss(sim);
    mac::EcMacConfig ec_cfg;
    ec_cfg.superframe = superframe;
    mac::EcMacController controller(sim, bss, ec_cfg, root.fork(100));

    std::vector<std::unique_ptr<mac::EcMacStation>> stations;
    std::vector<std::unique_ptr<traffic::PlayoutBuffer>> playouts;
    std::vector<std::unique_ptr<traffic::Mp3Source>> sources;

    for (int i = 0; i < config.clients; ++i) {
        const auto id = static_cast<mac::StationId>(i + 1);
        auto st = std::make_unique<mac::EcMacStation>(sim, bss, id, ec_cfg, config.wlan_nic);
        if (obs::EnergyLedger* led = obs::current_ledger()) {
            st->wlan_nic().attach_ledger(led, static_cast<std::uint32_t>(id));
        }
        bss.set_link(id, config.wlan_link, root.fork(300 + i));
        auto playout = std::make_unique<traffic::PlayoutBuffer>(sim, mp3_playout());
        st->set_receive_callback(
            [p = playout.get()](DataSize size, Time) { p->on_data(size); });
        auto src = std::make_unique<traffic::Mp3Source>(
            sim, [&controller, id](DataSize size) { controller.send(id, size); });
        stations.push_back(std::move(st));
        playouts.push_back(std::move(playout));
        sources.push_back(std::move(src));
    }

    controller.start();
    for (auto& st : stations) st->start(controller.superframe_anchor());
    for (auto& p : playouts) p->start();
    for (auto& s : sources) s->start();
    sim.run_until(config.duration);
    for (auto& st : stations) st->wlan_nic().settle_ledger();

    ScenarioResult result;
    result.label = "ec-mac";
    for (std::size_t i = 0; i < stations.size(); ++i) {
        result.clients.push_back(make_client_metrics(stations[i]->average_power(),
                                                     stations[i]->energy_consumed(),
                                                     *playouts[i],
                                                     stations[i]->bytes_received()));
    }
    if (obs::MetricsRegistry* reg = obs::current()) {
        for (auto& st : stations) st->wlan_nic().publish_metrics(*reg, "phy.wlan");
    }
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

ScenarioResult sim_bt_active(const StreamConfig& config) {
    WLANPS_REQUIRE(config.clients >= 1);
    sim::Simulator sim;
    sim::Random root(config.seed);
    bt::Piconet piconet(sim, bt::PiconetConfig{}, root.fork(100));

    std::vector<std::unique_ptr<bt::BtSlave>> slaves;
    std::vector<std::unique_ptr<traffic::PlayoutBuffer>> playouts;
    std::vector<std::unique_ptr<traffic::Mp3Source>> sources;

    for (int i = 0; i < config.clients; ++i) {
        auto slave = std::make_unique<bt::BtSlave>(sim, config.bt_nic,
                                                   phy::BtNic::State::active);
        const bt::SlaveId id = piconet.join(*slave);
        if (obs::EnergyLedger* led = obs::current_ledger()) {
            slave->nic().attach_ledger(led, static_cast<std::uint32_t>(i + 1));
        }
        piconet.set_link(id, config.bt_link, root.fork(300 + i));
        auto playout = std::make_unique<traffic::PlayoutBuffer>(sim, mp3_playout());
        slave->set_receive_callback([p = playout.get()](DataSize size) { p->on_data(size); });
        auto src = std::make_unique<traffic::Mp3Source>(
            sim, [&piconet, id](DataSize size) { piconet.send(id, size); });
        slaves.push_back(std::move(slave));
        playouts.push_back(std::move(playout));
        sources.push_back(std::move(src));
    }

    for (auto& p : playouts) p->start();
    for (auto& s : sources) s->start();
    sim.run_until(config.duration);
    for (auto& s : slaves) s->nic().settle_ledger();

    ScenarioResult result;
    result.label = "bt-active";
    for (std::size_t i = 0; i < slaves.size(); ++i) {
        result.clients.push_back(make_client_metrics(slaves[i]->average_power(),
                                                     slaves[i]->energy_consumed(),
                                                     *playouts[i],
                                                     slaves[i]->bytes_received()));
    }
    if (obs::MetricsRegistry* reg = obs::current()) {
        for (auto& s : slaves) s->nic().publish_metrics(*reg, "phy.bt");
    }
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

/// Event-driven power policies (micro_nap, pamas): one PolicyBssWorld on a
/// single-queue Simulator, with the BSS fault hooks.
ScenarioResult sim_policy_bss(const StreamConfig& config,
                              const policy::PowerPolicyConfig& power,
                              const FaultSurface& faults) {
    sim::Simulator sim;
    sim::Random root(config.seed);  // world forks 100/200+i/300+i; injector 900

    policy::PolicyWorldConfig wc;
    wc.clients = config.clients;
    wc.seed = config.seed;
    wc.policy = power;
    wc.nic = config.wlan_nic;
    wc.link = config.wlan_link;
    wc.playout = mp3_playout();
    policy::PolicyBssWorld world(sim, wc, obs::current_ledger());

    std::unique_ptr<fault::FaultInjector> injector;
    if (!config.fault_plan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(sim, config.fault_plan,
                                                          root.fork(900));
        std::vector<phy::WlanNic*> nics;
        for (int i = 0; i < config.clients; ++i) nics.push_back(&world.station(i).wlan_nic());
        bind_bss_faults(*injector, faults, sim, world.bss(), world.ap(), std::move(nics), root);
    }

    world.start();
    if (injector) injector->arm();
    sim.run_until(config.duration);
    world.settle();

    ScenarioResult result;
    result.label = power.kind == policy::PolicyKind::micro_nap ? "micro-nap" : "pamas";
    if (injector) result.faults_injected = injector->injected_total();
    for (int i = 0; i < config.clients; ++i) {
        policy::PolicyStation& st = world.station(i);
        result.clients.push_back(make_client_metrics(st.average_power(),
                                                     st.energy_consumed(),
                                                     world.playout(i), st.bytes_received()));
    }
    if (obs::MetricsRegistry* reg = obs::current()) {
        for (int i = 0; i < config.clients; ++i) {
            world.station(i).wlan_nic().publish_metrics(*reg, "phy.wlan");
        }
    }
    record_client_obs(result);
    record_kernel_obs(sim);
    return result;
}

}  // namespace

ScenarioResult SimBackend::do_run(const ScenarioSpec& spec, std::uint64_t seed) const {
    StreamConfig config = spec.stream();
    config.seed = seed;
    const FaultSurface faults = injectable_faults(spec);
    switch (spec.policy()) {
        case Policy::cam:
            if (spec.has_power_policy()) {
                return sim_policy_bss(config, spec.power_policy_config(), faults);
            }
            return sim_wlan_bss(config, nullptr, faults);
        case Policy::psm: return sim_wlan_bss(config, &spec.psm_config(), faults);
        case Policy::ecmac: return sim_ecmac(config, spec.ecmac_config().superframe);
        case Policy::bt: return sim_bt_active(config);
        case Policy::hotspot: return sim_hotspot(spec, seed);
        case Policy::federation:
            return fed::run_federation(spec, seed).scenario;
    }
    WLANPS_REQUIRE_MSG(false, "bad policy");
    return {};
}

}  // namespace wlanps::core

namespace wlanps::core::scenarios {

exp::Metrics to_metrics(const ScenarioResult& result) {
    exp::Metrics metrics;
    metrics.reserve(3 + 2 * result.clients.size());
    metrics.emplace_back("wnic_w", result.mean_wnic().watts());
    metrics.emplace_back("device_w", result.mean_device().watts());
    metrics.emplace_back("qos_min", result.min_qos());
    for (std::size_t i = 0; i < result.clients.size(); ++i) {
        const std::string prefix = "c" + std::to_string(i + 1) + ".";
        metrics.emplace_back(prefix + "wnic_w", result.clients[i].wnic_average.watts());
        metrics.emplace_back(prefix + "qos", result.clients[i].qos);
    }
    return metrics;
}

exp::Metrics to_recovery_metrics(const ScenarioResult& result) {
    exp::Metrics metrics = to_metrics(result);
    const RecoveryReport& r = result.recovery;
    metrics.emplace_back("faults_injected", static_cast<double>(result.faults_injected));
    metrics.emplace_back("liveness_reclaims", static_cast<double>(r.liveness_reclaims));
    metrics.emplace_back("burst_repairs", static_cast<double>(r.burst_repairs));
    metrics.emplace_back("schedule_drops", static_cast<double>(r.schedule_drops));
    metrics.emplace_back("rejoin_attempts", static_cast<double>(r.rejoin_attempts));
    metrics.emplace_back("rejoins", static_cast<double>(r.rejoins));
    double recover_sum = 0.0;
    for (double t : r.recover_times_s) recover_sum += t;
    metrics.emplace_back("mean_recover_s", r.recover_times_s.empty()
                                               ? 0.0
                                               : recover_sum / static_cast<double>(
                                                                   r.recover_times_s.size()));
    std::uint64_t video_drops = 0;
    std::uint64_t pauses = 0;
    double audio_only_s = 0.0;
    double paused_s = 0.0;
    for (const auto& d : result.degradation) {
        video_drops += d.video_drops;
        pauses += d.pauses;
        audio_only_s += d.time_audio_only_s;
        paused_s += d.time_paused_s;
    }
    metrics.emplace_back("video_drops", static_cast<double>(video_drops));
    metrics.emplace_back("pauses", static_cast<double>(pauses));
    metrics.emplace_back("time_audio_only_s", audio_only_s);
    metrics.emplace_back("time_paused_s", paused_s);
    return metrics;
}

exp::RunFn spec_grid_run(std::shared_ptr<const Backend> backend,
                         std::vector<ScenarioSpec> specs) {
    WLANPS_REQUIRE_MSG(backend != nullptr, "spec_grid_run needs a backend");
    WLANPS_REQUIRE_MSG(!specs.empty(), "spec_grid_run needs at least one spec");
    for (const ScenarioSpec& spec : specs) spec.validate();
    return [backend = std::move(backend), specs = std::move(specs)](
               const exp::ParamPoint& point, std::uint64_t seed) {
        WLANPS_REQUIRE_MSG(point.index < specs.size(),
                           "grid point " + std::to_string(point.index) + " has no spec (" +
                               std::to_string(specs.size()) + " provided)");
        return to_metrics(backend->run(specs[point.index], seed));
    };
}

exp::RunFn fault_grid_run(StreamConfig config, core::HotspotConfig options,
                          std::vector<fault::FaultPlan> plans) {
    WLANPS_REQUIRE_MSG(!plans.empty(), "fault grid needs at least one plan");
    auto spec = ScenarioSpec::hotspot().with_stream(std::move(config)).with_hotspot(
        std::move(options));
    return [spec = std::move(spec), plans = std::move(plans)](const exp::ParamPoint& point,
                                                              std::uint64_t seed) {
        WLANPS_REQUIRE_MSG(point.index < plans.size(),
                           "grid point " + std::to_string(point.index) + " has no fault plan (" +
                               std::to_string(plans.size()) + " provided)");
        // A copy per call: the runner calls one RunFn from several workers.
        return to_recovery_metrics(
            SimBackend{}.run(ScenarioSpec(spec).with_fault_plan(plans[point.index]), seed));
    };
}

}  // namespace wlanps::core::scenarios
