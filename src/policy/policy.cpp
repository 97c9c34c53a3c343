#include "policy/policy.hpp"

#include <string>

#include "sim/assert.hpp"

namespace wlanps::policy {

const char* to_string(PolicyKind kind) {
    switch (kind) {
        case PolicyKind::cam: return "cam";
        case PolicyKind::psm: return "psm";
        case PolicyKind::ecmac: return "ecmac";
        case PolicyKind::micro_nap: return "micro_nap";
        case PolicyKind::pamas: return "pamas";
    }
    return "?";
}

const char* power_policy_names() { return "cam, psm, ecmac, micro_nap, pamas"; }

PolicyKind parse_power_policy(std::string_view name) {
    if (name == "cam") return PolicyKind::cam;
    if (name == "psm") return PolicyKind::psm;
    if (name == "ecmac" || name == "ec-mac") return PolicyKind::ecmac;
    if (name == "micro_nap" || name == "micro-nap" || name == "munap") {
        return PolicyKind::micro_nap;
    }
    if (name == "pamas") return PolicyKind::pamas;
    WLANPS_REQUIRE_MSG(false, "unknown power policy '" + std::string(name) +
                                  "' — valid policies: " + power_policy_names());
    return PolicyKind::cam;  // unreachable
}

void PowerPolicyConfig::validate() const {
    WLANPS_REQUIRE_MSG(beacon_interval >= phy::calibration::kWlanTimeUnit,
                       "power-policy beacon_interval must be >= 1 TU (1.024 ms)");
    WLANPS_REQUIRE_MSG(uplink_period >= Time::zero(),
                       "uplink_period must be >= 0 (zero disables uplink)");
    if (!uplink_period.is_zero()) {
        WLANPS_REQUIRE_MSG(uplink_size > DataSize::from_bytes(0),
                           "uplink_size must be positive when uplink is enabled");
    }
    if (kind == PolicyKind::micro_nap) {
        WLANPS_REQUIRE_MSG(micro_nap.guard >= Time::zero(), "μNap guard must be >= 0");
    }
    if (kind == PolicyKind::pamas) pamas.validate();
}

std::unique_ptr<PowerPolicy> make_power_policy(const PowerPolicyConfig& config) {
    if (config.kind == PolicyKind::pamas) return std::make_unique<PamasPolicy>(config.pamas);
    WLANPS_REQUIRE_MSG(config.kind == PolicyKind::micro_nap,
                       std::string("'") + to_string(config.kind) +
                           "' is a ScenarioSpec alias with no policy object");
    return std::make_unique<MicroNapPolicy>(config.micro_nap);
}

}  // namespace wlanps::policy
