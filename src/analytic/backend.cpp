#include "analytic/backend.hpp"

#include <string>

#include "analytic/model.hpp"
#include "phy/calibration.hpp"
#include "sim/assert.hpp"

namespace wlanps::analytic {

namespace cal = phy::calibration;
using core::ClientMetrics;
using core::Policy;
using core::ScenarioResult;
using core::ScenarioSpec;

std::string AnalyticBackend::unsupported_reason(const ScenarioSpec& spec) const {
    switch (spec.policy()) {
        case Policy::ecmac:
            return "the EC-MAC superframe schedule is event-driven and has no "
                   "closed-form model — run ecmac scenarios on the sim backend";
        case Policy::federation:
            return "federation roaming/admission dynamics (flash crowds, handoffs, "
                   "backhaul contention) are event-driven and have no closed-form "
                   "model — run federation scenarios on the sim backend";
        default:
            break;
    }
    if (spec.has_power_policy()) {
        if (spec.power_policy_config().kind == policy::PolicyKind::micro_nap) {
            return "micro_nap sleeps hinge on per-exchange NAV/backoff gap "
                   "timing, which has no closed form — run micro_nap on the "
                   "sim backend";
        }
        return "pamas stretches its duty cycle along a battery trajectory, "
               "a transient with no closed form — run pamas on the sim "
               "backend";
    }
    if (!spec.stream().fault_plan.empty()) {
        return "fault plans model transients, not steady state — run faulted "
               "scenarios on the sim backend or clear the fault plan";
    }
    if (spec.policy() == Policy::hotspot) {
        const auto& h = spec.hotspot_config();
        if (spec.has_mix()) {
            return "heterogeneous mixed workloads (video/web admission, per-class "
                   "QoS) have no closed-form model — run mixed hotspot scenarios "
                   "on the sim backend";
        }
        if (h.media_proxy) {
            return "media-proxy degradation is adaptive and has no closed-form "
                   "model — run proxied scenarios on the sim backend";
        }
        if (h.rejoin_enabled) {
            return "rejoin/recovery is a transient process — run rejoin scenarios "
                   "on the sim backend";
        }
        if (!h.bt_quality_script.empty()) {
            return "scripted link decay breaks the stationary-channel assumption — "
                   "run scripted-quality scenarios on the sim backend";
        }
        if (h.fault_trace != nullptr || h.contract_tweak || h.on_start || h.inspect) {
            return "fault_trace/contract_tweak/on_start/inspect hook into the "
                   "simulator's world objects — run hook-carrying scenarios on the "
                   "sim backend";
        }
    }
    return {};
}

ScenarioResult AnalyticBackend::do_run(const ScenarioSpec& spec, std::uint64_t seed) const {
    (void)seed;  // closed forms are seed-invariant by construction
    const auto& stream = spec.stream();

    power::Power wnic;
    switch (spec.policy()) {
        case Policy::cam:
            wnic = cam_station_power(stream.wlan_nic, stream.wlan_link);
            break;
        case Policy::psm: {
            PsmModelParams params;
            params.stations = stream.clients;
            params.listen_interval = spec.psm_config().listen_interval;
            params.aggregate_limit = spec.psm_config().aggregate_limit;
            params.beacon_interval = spec.psm_config().beacon_interval;
            wnic = psm_station_power(params, stream.wlan_nic, stream.wlan_link);
            break;
        }
        case Policy::bt:
            wnic = bt_active_power(stream.bt_nic, stream.bt_link);
            break;
        case Policy::hotspot: {
            const auto& h = spec.hotspot_config();
            HotspotModelParams params;
            params.target_burst = h.target_burst;
            params.target_burst_period = h.target_burst_period;
            params.wlan_available = h.wlan_available;
            params.bt_available = h.bt_available;
            params.duration = stream.duration;
            wnic = hotspot_client_power(params, stream.wlan_nic, stream.bt_nic,
                                        stream.wlan_link, stream.bt_link);
            break;
        }
        case Policy::ecmac:
        case Policy::federation:
            WLANPS_REQUIRE_MSG(false, "unsupported policy reached AnalyticBackend::do_run");
    }

    ClientMetrics m;
    m.wnic_average = wnic;
    m.wnic_energy = wnic.over(stream.duration);
    m.device_average = wnic + cal::kIpaqBase;
    m.qos = 1.0;  // steady state: every playout deadline met by assumption
    m.underruns = 0;
    m.received = cal::kMp3Rate.data_in(stream.duration);

    ScenarioResult result;
    result.label = spec.label();
    result.clients.assign(static_cast<std::size_t>(spec.clients()), m);
    return result;
}

std::shared_ptr<const core::Backend> make_backend(std::string_view name) {
    if (name == "sim") return std::make_shared<core::SimBackend>();
    if (name == "analytic") return std::make_shared<AnalyticBackend>();
    WLANPS_REQUIRE_MSG(false, "unknown backend '" + std::string(name) +
                                  "' — valid backends: sim, analytic");
    return nullptr;  // unreachable
}

}  // namespace wlanps::analytic
