#include "core/scenario_spec.hpp"

#include <algorithm>
#include <cstdio>

#include "bt/piconet.hpp"
#include "core/server.hpp"
#include "sim/assert.hpp"

namespace wlanps::core {

namespace {

/// Shortest decimal representation ("3", "0.9", "102.4") for describe().
std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

bool known_scheduler(const std::string& name) {
    static constexpr const char* kNames[] = {"edf", "wfq", "round-robin",
                                             "fixed-priority", "fifo"};
    return std::any_of(std::begin(kNames), std::end(kNames),
                       [&](const char* n) { return name == n; });
}

/// The one piconet rule: every bt client, and every hotspot client with
/// bt_available, is an active slave on its cell's piconet.
void require_piconet_fits(int clients_per_piconet) {
    const int max = bt::PiconetConfig{}.max_active;
    WLANPS_REQUIRE_MSG(clients_per_piconet <= max,
                       "clients per piconet must be <= " + std::to_string(max) + " (got " +
                           std::to_string(clients_per_piconet) +
                           " on one piconet) — use fewer clients, or on a hotspot set "
                           "bt_available = false");
}

}  // namespace

power::Power ScenarioResult::mean_wnic() const {
    WLANPS_REQUIRE(!clients.empty());
    power::Power sum;
    for (const ClientMetrics& c : clients) sum += c.wnic_average;
    return sum * (1.0 / static_cast<double>(clients.size()));
}

power::Power ScenarioResult::mean_device() const {
    WLANPS_REQUIRE(!clients.empty());
    power::Power sum;
    for (const ClientMetrics& c : clients) sum += c.device_average;
    return sum * (1.0 / static_cast<double>(clients.size()));
}

double ScenarioResult::min_qos() const {
    WLANPS_REQUIRE(!clients.empty());
    double q = 1.0;
    for (const ClientMetrics& c : clients) q = std::min(q, c.qos);
    return q;
}

void PsmConfig::validate() const {
    WLANPS_REQUIRE_MSG(listen_interval >= 1,
                       "PsmConfig.listen_interval must be >= 1 (got " +
                           std::to_string(listen_interval) + ")");
    WLANPS_REQUIRE_MSG(aggregate_limit >= 1,
                       "PsmConfig.aggregate_limit must be >= 1 (got " +
                           std::to_string(aggregate_limit) + ")");
    WLANPS_REQUIRE_MSG(beacon_interval >= phy::calibration::kWlanTimeUnit,
                       "PsmConfig.beacon_interval must be >= 1 TU (1.024 ms)");
}

void EcmacConfig::validate() const {
    WLANPS_REQUIRE_MSG(superframe > Time::zero(),
                       "EcmacConfig.superframe must be positive");
}

std::string_view to_string(AdmissionPolicy policy) {
    switch (policy) {
        case AdmissionPolicy::reject: return "reject";
        case AdmissionPolicy::defer: return "defer";
        case AdmissionPolicy::degrade: return "degrade";
    }
    WLANPS_REQUIRE_MSG(false, "bad admission policy");
    return "";
}

AdmissionPolicy parse_admission(std::string_view name) {
    if (name == "reject") return AdmissionPolicy::reject;
    if (name == "defer") return AdmissionPolicy::defer;
    if (name == "degrade") return AdmissionPolicy::degrade;
    WLANPS_REQUIRE_MSG(false, "unknown admission policy '" + std::string(name) +
                                  "' (reject, defer, degrade)");
    return AdmissionPolicy::reject;  // unreachable
}

void FederationConfig::validate() const {
    WLANPS_REQUIRE_MSG(aps >= 1, "FederationConfig.aps must be >= 1 (got " +
                                     std::to_string(aps) + ")");
    WLANPS_REQUIRE_MSG(shards >= 1,
                       "FederationConfig.shards must be >= 1 (got " +
                           std::to_string(shards) +
                           ") — the federation always rides the sharded kernel; "
                           "there is no single-queue federation path");
    WLANPS_REQUIRE_MSG(shards <= aps,
                       "FederationConfig.shards (" + std::to_string(shards) +
                           ") cannot exceed aps (" + std::to_string(aps) +
                           ") — a shard with no AP cell would idle forever");
    WLANPS_REQUIRE_MSG(threads >= 0, "FederationConfig.threads cannot be negative");
    WLANPS_REQUIRE_MSG(threads <= shards,
                       "FederationConfig.threads (" + std::to_string(threads) +
                           ") cannot exceed shards (" + std::to_string(shards) +
                           ") — excess workers would never hold a shard; "
                           "lower threads or raise shards");
    WLANPS_REQUIRE_MSG(!roaming || aps >= 2,
                       "FederationConfig.roaming needs at least 2 APs to roam "
                       "between (got " + std::to_string(aps) +
                           ") — add APs or disable roaming");
    if (roaming) {
        WLANPS_REQUIRE_MSG(mean_dwell > Time::zero(),
                           "FederationConfig.mean_dwell must be positive");
    }
    WLANPS_REQUIRE_MSG(base_arrival_hz >= 0.0 && flash_arrival_hz >= 0.0,
                       "FederationConfig arrival rates cannot be negative");
    if (flash_arrival_hz > 0.0) {
        WLANPS_REQUIRE_MSG(flash_duration > Time::zero(),
                           "FederationConfig.flash_duration must be positive "
                           "when flash_arrival_hz is set");
    }
    WLANPS_REQUIRE_MSG(mean_session > Time::zero(),
                       "FederationConfig.mean_session must be positive");
    WLANPS_REQUIRE_MSG(capacity_per_ap >= 1,
                       "FederationConfig.capacity_per_ap must be >= 1");
    WLANPS_REQUIRE_MSG(defer_retry > Time::zero(),
                       "FederationConfig.defer_retry must be positive");
    WLANPS_REQUIRE_MSG(degrade_factor > 0.0 && degrade_factor <= 1.0,
                       "FederationConfig.degrade_factor must be in (0, 1] (got " +
                           fmt(degrade_factor) + ")");
    WLANPS_REQUIRE_MSG(stream_rate > Rate::zero(),
                       "FederationConfig.stream_rate must be positive");
    WLANPS_REQUIRE_MSG(target_burst > DataSize::zero(),
                       "FederationConfig.target_burst must be positive");
    WLANPS_REQUIRE_MSG(radio_goodput > Rate::zero(),
                       "FederationConfig.radio_goodput must be positive");
    WLANPS_REQUIRE_MSG(backhaul_rate > Rate::zero(),
                       "FederationConfig.backhaul_rate must be positive");
    WLANPS_REQUIRE_MSG(sample_stride >= 1,
                       "FederationConfig.sample_stride must be >= 1");
}

void HotspotConfig::validate() const {
    WLANPS_REQUIRE_MSG(known_scheduler(scheduler),
                       "HotspotConfig.scheduler '" + scheduler +
                           "' is unknown (edf, wfq, round-robin, fixed-priority, fifo)");
    const DataSize min_burst = ServerConfig{}.min_burst;
    WLANPS_REQUIRE_MSG(target_burst >= min_burst,
                       "HotspotConfig.target_burst must be >= the server's minimum burst " +
                           min_burst.str() + " (got " + target_burst.str() + ")");
    WLANPS_REQUIRE_MSG(target_burst_period > Time::zero(),
                       "HotspotConfig.target_burst_period must be positive");
    WLANPS_REQUIRE_MSG(wlan_available || bt_available,
                       "at least one interface must be available "
                       "(set wlan_available or bt_available)");
    WLANPS_REQUIRE_MSG(utilization_cap > 0.0,
                       "HotspotConfig.utilization_cap must be positive (got " +
                           fmt(utilization_cap) + ")");
    resilience.validate();
    if (rejoin_enabled) rejoin.validate();
    if (media_proxy) {
        WLANPS_REQUIRE_MSG(proxy_config.audio_rate > Rate::zero(),
                           "HotspotConfig.proxy_config.audio_rate must be positive");
        WLANPS_REQUIRE_MSG(proxy_config.audio_rate < proxy_config.av_rate,
                           "HotspotConfig.proxy_config.audio_rate must be below av_rate");
    }
}

void MixedWorkload::validate() const {
    WLANPS_REQUIRE_MSG(mp3_clients >= 0 && video_clients >= 0 && web_clients >= 0,
                       "MixedWorkload client counts must be non-negative");
    WLANPS_REQUIRE_MSG(total() >= 1, "MixedWorkload needs at least one client");
}

std::string_view to_string(Policy policy) {
    switch (policy) {
        case Policy::cam: return "cam";
        case Policy::psm: return "psm";
        case Policy::ecmac: return "ecmac";
        case Policy::bt: return "bt";
        case Policy::hotspot: return "hotspot";
        case Policy::federation: return "federation";
    }
    WLANPS_REQUIRE_MSG(false, "bad policy");
    return "";
}

ScenarioSpec& ScenarioSpec::with_power_policy(policy::PowerPolicyConfig config) {
    if (!power_set_) power_on_cam_ = policy_ == Policy::cam;
    power_ = std::move(config);
    power_set_ = true;
    if (!power_on_cam_) return *this;  // validate() refuses it
    policy_ = Policy::cam;
    if (power_.kind == policy::PolicyKind::psm) {
        policy_ = Policy::psm;
        if (!psm_set_) psm_ = PsmConfig{}.with_beacon_interval(power_.beacon_interval);
    } else if (power_.kind == policy::PolicyKind::ecmac) {
        policy_ = Policy::ecmac;
    }
    return *this;
}

std::string ScenarioSpec::label() const {
    switch (policy_) {
        case Policy::cam:
            if (has_power_policy()) {
                return power_.kind == policy::PolicyKind::micro_nap ? "micro-nap" : "pamas";
            }
            return "wlan-cam";
        case Policy::psm: return "wlan-psm";
        case Policy::ecmac: return "ec-mac";
        case Policy::bt: return "bt-active";
        case Policy::hotspot:
            return (has_mix() ? "hotspot-mixed-" : "hotspot-") + hotspot_.scheduler;
        case Policy::federation:
            return "federation-" + std::string(to_string(fed_.admission));
    }
    return "?";
}

std::string ScenarioSpec::describe() const {
    std::string out = "policy=";
    out += to_string(policy_);
    out += " clients=" + std::to_string(clients());
    out += " duration_s=" + fmt(stream_.duration.to_seconds());
    if (!stream_.fault_plan.empty()) {
        out += " faults=" + std::to_string(stream_.fault_plan.size());
    }
    switch (policy_) {
        case Policy::cam:
            if (has_power_policy()) {
                out += " power_policy=" + std::string(policy::to_string(power_.kind));
                out += " beacon_ms=" + fmt(power_.beacon_interval.to_seconds() * 1e3);
                if (power_.kind == policy::PolicyKind::micro_nap) {
                    out += " nap_guard_us=" + fmt(power_.micro_nap.guard.to_seconds() * 1e6);
                } else {
                    out += " pamas_base_ms=" + fmt(power_.pamas.base_period.to_seconds() * 1e3);
                }
                if (power_.uplink_period > Time::zero()) {
                    out += " uplink_ms=" + fmt(power_.uplink_period.to_seconds() * 1e3);
                }
            }
            break;
        case Policy::bt:
            break;
        case Policy::psm:
            out += " listen_interval=" + std::to_string(psm_.listen_interval);
            out += " aggregate_limit=" + std::to_string(psm_.aggregate_limit);
            out += " beacon_ms=" + fmt(psm_.beacon_interval.to_seconds() * 1e3);
            break;
        case Policy::ecmac:
            out += " superframe_ms=" + fmt(ecmac_.superframe.to_seconds() * 1e3);
            break;
        case Policy::federation:
            out += " aps=" + std::to_string(fed_.aps);
            out += " shards=" + std::to_string(fed_.shards);
            out += " threads=" + std::to_string(fed_.threads);
            out += " admission=" + std::string(to_string(fed_.admission));
            out += " capacity=" + std::to_string(fed_.capacity_per_ap);
            if (fed_.roaming) out += " dwell_s=" + fmt(fed_.mean_dwell.to_seconds());
            if (fed_.base_arrival_hz > 0.0) {
                out += " arrival_hz=" + fmt(fed_.base_arrival_hz);
            }
            if (fed_.flash_arrival_hz > 0.0) {
                out += " flash_hz=" + fmt(fed_.flash_arrival_hz);
                out += " flash_s=" + fmt(fed_.flash_start.to_seconds()) + "+" +
                       fmt(fed_.flash_duration.to_seconds());
            }
            break;
        case Policy::hotspot:
            if (has_mix()) {
                out += " mp3=" + std::to_string(mix_.mp3_clients);
                out += " video=" + std::to_string(mix_.video_clients);
                out += " web=" + std::to_string(mix_.web_clients);
            }
            out += " scheduler=" + hotspot_.scheduler;
            out += " burst_kb=" + fmt(hotspot_.target_burst.kilobytes());
            out += " burst_period_s=" + fmt(hotspot_.target_burst_period.to_seconds());
            out += " wlan=" + std::to_string(hotspot_.wlan_available ? 1 : 0);
            out += " bt=" + std::to_string(hotspot_.bt_available ? 1 : 0);
            out += " cap=" + fmt(hotspot_.utilization_cap);
            if (hotspot_.media_proxy) out += " media_proxy=1";
            if (hotspot_.rejoin_enabled) out += " rejoin=1";
            break;
    }
    return out;
}

void ScenarioSpec::validate() const {
    WLANPS_REQUIRE_MSG(stream_.duration > Time::zero(),
                       "ScenarioSpec duration must be positive");
    if (has_mix()) {
        mix_.validate();
    } else if (policy_ == Policy::federation) {
        // The initial population may be empty if arrivals feed the cells.
        WLANPS_REQUIRE_MSG(stream_.clients >= 0,
                           "ScenarioSpec clients cannot be negative");
        WLANPS_REQUIRE_MSG(
            stream_.clients >= 1 || fed_.base_arrival_hz > 0.0 ||
                fed_.flash_arrival_hz > 0.0,
            "federation needs an initial population or a nonzero arrival rate");
    } else {
        WLANPS_REQUIRE_MSG(stream_.clients >= 1,
                           "ScenarioSpec needs at least one client (got " +
                               std::to_string(stream_.clients) + ")");
    }
    // Sub-configs only make sense on their own policy: reject the
    // incoherent combinations loudly instead of silently ignoring them.
    const std::string policy_name(to_string(policy_));
    WLANPS_REQUIRE_MSG(!psm_set_ || policy_ == Policy::psm,
                       "PsmConfig set on a '" + policy_name +
                           "' scenario — use ScenarioSpec::psm()");
    WLANPS_REQUIRE_MSG(!ecmac_set_ || policy_ == Policy::ecmac,
                       "EcmacConfig (superframe) set on a '" + policy_name +
                           "' scenario — use ScenarioSpec::ecmac()");
    WLANPS_REQUIRE_MSG(!hotspot_set_ || policy_ == Policy::hotspot,
                       "HotspotConfig set on a '" + policy_name +
                           "' scenario — use ScenarioSpec::hotspot() or hotspot_mixed()");
    WLANPS_REQUIRE_MSG(!mix_set_ || policy_ == Policy::hotspot,
                       "MixedWorkload set on a '" + policy_name +
                           "' scenario — use ScenarioSpec::hotspot_mixed()");
    WLANPS_REQUIRE_MSG(!fed_set_ || policy_ == Policy::federation,
                       "FederationConfig set on a '" + policy_name +
                           "' scenario — use ScenarioSpec::federation()");
    // Power policies replace the station build, so they ride the cam base
    // policy only — every other policy already fixes its station behavior.
    WLANPS_REQUIRE_MSG(!power_set_ || power_on_cam_,
                       "PowerPolicyConfig set on a '" + policy_name +
                           "' scenario — power policies ride the cam base: "
                           "ScenarioSpec::cam().with_power_policy(...)");
    if (power_set_) {
        power_.validate();
        const std::string kind = policy::to_string(power_.kind);
        WLANPS_REQUIRE_MSG(has_power_policy() || power_.uplink_period.is_zero(),
                           "uplink_period is set on the '" + kind +
                               "' power policy, an alias for ScenarioSpec::" + kind +
                               "() with no uplink workload — use micro_nap or pamas "
                               "for uplink traffic");
    }
    stream_.fault_plan.validate();
    const FaultSurface faults = injectable_faults(*this);
    for (const auto& f : stream_.fault_plan.specs()) {
        WLANPS_REQUIRE_MSG(faults.accepts(f.kind),
                           "'" + label() + "' cannot inject '" +
                               fault::to_string(f.kind) + "' — " + faults.hint);
    }
    switch (policy_) {
        case Policy::cam:
            if (has_power_policy() && power_.kind == policy::PolicyKind::micro_nap) {
                const phy::NapCostTable& nap = stream_.wlan_nic.nap;
                WLANPS_REQUIRE_MSG(
                    nap.sleep_latency > Time::zero() && nap.wake_latency > Time::zero(),
                    "μNap needs positive Wnic nap transition latencies "
                    "(stream().wlan_nic.nap) — a free transition would let the "
                    "policy sleep through its own carrier-sense guarantee");
                WLANPS_REQUIRE_MSG(
                    nap.sleep_latency + nap.wake_latency <= power_.beacon_interval,
                    "μNap transition cost (sleep " +
                        fmt(nap.sleep_latency.to_seconds() * 1e6) + "us + wake " +
                        fmt(nap.wake_latency.to_seconds() * 1e6) +
                        "us) exceeds the beacon interval (" +
                        fmt(power_.beacon_interval.to_seconds() * 1e3) +
                        "ms) — no idle gap could ever amortize a nap; shrink the "
                        "Wnic nap cost table (stream().wlan_nic.nap) or raise the "
                        "beacon interval");
            }
            break;
        case Policy::bt:
            require_piconet_fits(stream_.clients);
            break;
        case Policy::psm:
            psm_.validate();
            break;
        case Policy::ecmac:
            ecmac_.validate();
            break;
        case Policy::hotspot:
            hotspot_.validate();
            if (has_mix()) {
                WLANPS_REQUIRE_MSG(!hotspot_.media_proxy,
                                   "a mixed workload feeds each client from its row (stored "
                                   "MP3, live video, live web) — clear media_proxy or drop "
                                   "the mix");
            }
            if (hotspot_.bt_available) require_piconet_fits(clients());
            break;
        case Policy::federation:
            fed_.validate();
            break;
    }
}

}  // namespace wlanps::core
