#include "core/scenarios.hpp"

#include <memory>
#include <utility>

#include "core/bss_world.hpp"
#include "core/hotspot_world.hpp"
#include "fault/injector.hpp"
#include "fed/federation.hpp"
#include "obs/energy_ledger.hpp"
#include "sim/assert.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

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

/// A BSS-family spec on one queue, with the BSS fault hooks bound.
ScenarioResult sim_bss(const ScenarioSpec& spec, std::uint64_t seed) {
    sim::Simulator sim;
    BssWorld world(sim, spec, seed, obs::current_ledger());
    std::unique_ptr<fault::FaultInjector> injector;
    if (!spec.stream().fault_plan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(sim, spec.stream().fault_plan,
                                                          sim::Random(seed).fork(900));
        world.bind_faults(*injector, injectable_faults(spec));
    }
    world.start();
    if (injector) injector->arm();
    sim.run_until(spec.duration());
    ScenarioResult result = world.finish();
    if (injector) result.faults_injected = injector->injected_total();
    return result;
}

}  // namespace

ScenarioResult SimBackend::do_run(const ScenarioSpec& spec, std::uint64_t seed) const {
    switch (spec.policy()) {
        case Policy::cam:
        case Policy::psm:
        case Policy::ecmac:
        case Policy::bt: return sim_bss(spec, seed);
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
