#pragma once
/// \file policy.hpp
/// Power-policy selection: the config every scenario carries to pick and
/// parameterize a power-saving policy (core::ScenarioSpec::with_power_policy).
///
/// Five kinds are selectable, so a single `--policy=<name>` axis sweeps
/// everything the repo can do: the two event-driven policies (micro_nap,
/// pamas) and three aliases for the core policies (cam, psm, ecmac), which
/// with_power_policy rewrites into the native ScenarioSpec.

#include <memory>
#include <string>
#include <string_view>

#include "phy/calibration.hpp"
#include "policy/micro_nap.hpp"
#include "policy/pamas_policy.hpp"
#include "policy/power_policy.hpp"

namespace wlanps::policy {

/// Selectable power-saving policy.
enum class PolicyKind : std::uint8_t { cam, psm, ecmac, micro_nap, pamas };

[[nodiscard]] const char* to_string(PolicyKind kind);

/// Parse a policy name; throws ContractViolation listing the valid names.
[[nodiscard]] PolicyKind parse_power_policy(std::string_view name);

/// All valid names, comma-separated (CLI help text).
[[nodiscard]] const char* power_policy_names();

/// Full configuration of one station's power policy.
struct PowerPolicyConfig {
    PolicyKind kind = PolicyKind::micro_nap;

    MicroNapConfig micro_nap;
    PamasPolicyConfig pamas;

    /// AP beacon interval of the policy world (also the psm alias's).
    Time beacon_interval = phy::calibration::kWlanBeaconInterval;

    // --- optional uplink workload (micro_nap / pamas) -------------------
    /// When positive, each station also sends a small uplink frame every
    /// period — this exercises the DCF backoff path (and μNap's backoff
    /// naps) on otherwise downlink-only streaming scenarios.
    Time uplink_period = Time::zero();
    DataSize uplink_size = DataSize::from_bytes(200);

    [[nodiscard]] static PowerPolicyConfig of(PolicyKind kind) {
        PowerPolicyConfig c;
        c.kind = kind;
        return c;
    }

    PowerPolicyConfig& with_uplink(Time period, DataSize size) {
        uplink_period = period;
        uplink_size = size;
        return *this;
    }
    PowerPolicyConfig& with_micro_nap(MicroNapConfig c) {
        micro_nap = c;
        return *this;
    }
    PowerPolicyConfig& with_pamas(PamasPolicyConfig c) {
        pamas = std::move(c);
        return *this;
    }

    void validate() const;
};

/// Instantiate the policy object for an event-driven kind (micro_nap or
/// pamas); the alias kinds have none.
[[nodiscard]] std::unique_ptr<PowerPolicy> make_power_policy(const PowerPolicyConfig& config);

}  // namespace wlanps::policy
