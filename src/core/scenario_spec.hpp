#pragma once
/// \file scenario_spec.hpp
/// Backend-agnostic description of one evaluation scenario.
///
/// A ScenarioSpec is the single, validated, serializable unit of
/// experiment description: which power-management policy runs
/// (cam / psm / ecmac / bt / hotspot / federation), the stream and
/// world parameters (client count, duration, links, NIC calibration,
/// fault plan), and the policy-specific sub-configuration.  Any
/// core::Backend (backend.hpp) — the discrete-event simulator or the
/// closed-form analytic models — executes the *same* spec and returns the
/// same ScenarioResult shape, so grids, benches, and the energy ledger
/// export are backend-independent.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "channel/gilbert_elliott.hpp"
#include "channel/scripted.hpp"
#include "core/media_proxy.hpp"
#include "core/qos.hpp"
#include "core/resilience.hpp"
#include "fault/fault.hpp"
#include "phy/bt_nic.hpp"
#include "phy/calibration.hpp"
#include "phy/wlan_nic.hpp"
#include "policy/policy.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "sim/units.hpp"

namespace wlanps::sim {
class Simulator;
}

namespace wlanps::obs {
struct HealthReport;
}

namespace wlanps::core {

class HotspotServer;
class HotspotClient;

/// Common workload/world parameters (defaults = the Figure 2 experiment).
struct StreamConfig {
    int clients = 3;
    Time duration = Time::from_seconds(300);
    std::uint64_t seed = 42;
    /// Per-client link behaviour (mild burst errors by default).
    channel::GilbertElliottConfig wlan_link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    channel::GilbertElliottConfig bt_link{Time::from_ms(800), Time::from_ms(40), 1e-7, 1e-4};
    /// NIC calibration overrides (defaults = IPAQ measurements) — the
    /// sensitivity ablation sweeps these.
    phy::WlanNicConfig wlan_nic;
    phy::BtNicConfig bt_nic;
    /// Deterministic fault schedule replayed into the run (the kinds each
    /// policy accepts are in injectable_faults).  Empty = no injector is
    /// built at all, so the run is bit-identical to one before the fault
    /// subsystem existed.
    fault::FaultPlan fault_plan;
};

/// Ground-truth per-client results.
struct ClientMetrics {
    power::Power wnic_average;     ///< all wireless interfaces
    power::Energy wnic_energy;
    power::Power device_average;   ///< wnic + IPAQ base platform
    double qos = 0.0;              ///< fraction of playout deadlines met
    std::uint64_t underruns = 0;
    DataSize received;
};

/// Result of one scenario run (any backend).
struct ScenarioResult {
    std::string label;
    std::vector<ClientMetrics> clients;
    /// Recovery actions taken (server sweep/repair + every RejoinAgent).
    RecoveryReport recovery;
    /// Per-proxied-client degradation accounting (empty without a proxy).
    std::vector<MediaProxy::DegradationReport> degradation;
    /// Faults the injector actually fired (0 without a plan).
    std::uint64_t faults_injected = 0;

    [[nodiscard]] power::Power mean_wnic() const;
    [[nodiscard]] power::Power mean_device() const;
    [[nodiscard]] double min_qos() const;
};

/// Standard 802.11 PSM sub-configuration (TIM beacons + PS-Polls).
struct PsmConfig {
    int listen_interval = 1;
    /// >1 enables MAC-level aggregation (multiple MSDUs per poll).
    int aggregate_limit = 1;
    Time beacon_interval = phy::calibration::kWlanBeaconInterval;

    PsmConfig& with_listen_interval(int v) { listen_interval = v; return *this; }
    PsmConfig& with_aggregate_limit(int v) { aggregate_limit = v; return *this; }
    PsmConfig& with_beacon_interval(Time v) { beacon_interval = v; return *this; }

    /// Reject incoherent values with a ContractViolation naming the field.
    void validate() const;
};

/// EC-MAC sub-configuration (centrally broadcast schedule).
struct EcmacConfig {
    Time superframe = Time::from_ms(100);

    EcmacConfig& with_superframe(Time v) { superframe = v; return *this; }
    void validate() const;
};

/// Cross-shard lookahead of both sharded worlds (the sharded hotspot and
/// the federation): the kernel quantum, the GrantPlanner's grant latency
/// and the federation's handoff delay.
inline constexpr Time kShardLookahead = Time::from_ms(20);

/// Sharded parallel execution of the hotspot world (sim/sharded.hpp):
/// clients are partitioned into per-shard AP cells, each advanced on its
/// own event queue by the conservative sharded kernel, with a schedule-
/// ahead control plane on shard 0 issuing burst grants through cross-
/// shard mailboxes.  shards == 0 keeps the classic single-queue scenario
/// path.  See DESIGN.md §12.
struct ShardingConfig {
    int shards = 0;
    /// Sim worker threads; 0 = inline sequential execution of the sharded
    /// world — the reference every thread count is bit-identical to.
    int threads = 0;

    [[nodiscard]] bool enabled() const { return shards > 0; }

    ShardingConfig& with_shards(int v) { shards = v; return *this; }
    ShardingConfig& with_threads(int v) { threads = v; return *this; }

    void validate() const;
};

/// Hotspot scheduling sub-configuration (paper §2: bursts + interface
/// selection + park/off between bursts).
struct HotspotConfig {
    std::string scheduler = "edf";
    DataSize target_burst = DataSize::from_kilobytes(48);
    /// Per-client bursts are max(target_burst, rate * target_burst_period)
    /// — set this below target_burst/rate to sweep small bursts.
    Time target_burst_period = Time::from_seconds(3);
    bool wlan_available = true;
    bool bt_available = true;
    /// Admission-control utilization cap (>1 effectively disables
    /// admission — used by the overload ablation).
    double utilization_cap = 0.90;
    /// Optional scripted BT degradation (per client) — the paper's
    /// "conditions in the link change" switching scenario.
    channel::ScriptedQuality bt_quality_script;
    /// Recovery machinery (liveness reclamation, burst repair) — all off
    /// by default.
    ResilienceConfig resilience;
    /// Build a RejoinAgent per client (re-registration with exponential
    /// backoff + jitter after a crash or liveness reclaim).
    bool rejoin_enabled = false;
    RejoinPolicy rejoin;
    /// Feed each client through a MediaProxy (graceful A/V degradation)
    /// instead of the stored-content path: a PoissonSource generates the
    /// A/V stream at proxy_config.av_rate and the proxy thins it.
    bool media_proxy = false;
    MediaProxy::Config proxy_config;
    /// Mirror injected faults into this trace as a Perfetto lane (must
    /// outlive the run).  Simulation backend only.
    sim::TimelineTrace* fault_trace = nullptr;
    /// Per-client QoS contract adjustment (weights, priorities, rates)
    /// applied before the client is built.  Simulation backend only.
    std::function<void(ClientId, QosContract&)> contract_tweak;
    /// Invoked after the world is built, before the run starts — attach
    /// power traces, schedule mid-run probes, tweak contracts, etc.
    /// Simulation backend only.
    std::function<void(sim::Simulator&, HotspotServer&, std::vector<HotspotClient*>&)> on_start;
    /// Invoked just before teardown for inspection (traces, reports).
    /// Simulation backend only.
    std::function<void(sim::Simulator&, HotspotServer&, std::vector<HotspotClient*>&)> inspect;
    /// Sharded multi-cell execution (disabled by default).  Incompatible
    /// with the proxy/rejoin/fault machinery — validate() enforces it.
    ShardingConfig sharding;
    /// Filled with the kernel health rollup after a sharded run (must
    /// outlive the run; ignored by the single-kernel paths).  Simulation
    /// backend only.
    obs::HealthReport* health = nullptr;

    HotspotConfig& with_scheduler(std::string v) { scheduler = std::move(v); return *this; }
    HotspotConfig& with_target_burst(DataSize v) { target_burst = v; return *this; }
    HotspotConfig& with_target_burst_period(Time v) { target_burst_period = v; return *this; }
    HotspotConfig& with_wlan_available(bool v) { wlan_available = v; return *this; }
    HotspotConfig& with_bt_available(bool v) { bt_available = v; return *this; }
    HotspotConfig& with_utilization_cap(double v) { utilization_cap = v; return *this; }
    HotspotConfig& with_resilience(ResilienceConfig v) { resilience = v; return *this; }
    HotspotConfig& with_rejoin(RejoinPolicy v) {
        rejoin_enabled = true;
        rejoin = v;
        return *this;
    }
    HotspotConfig& with_media_proxy(MediaProxy::Config v) {
        media_proxy = true;
        proxy_config = v;
        return *this;
    }
    HotspotConfig& with_sharding(ShardingConfig v) {
        sharding = v;
        return *this;
    }

    void validate() const;
};

/// What an AP cell does with a client that arrives (or roams in) while the
/// cell is at capacity.
enum class AdmissionPolicy {
    reject,   ///< turn the client away (it departs, handoff fails)
    defer,    ///< queue the admission and retry after defer_retry
    degrade,  ///< admit, but serve bursts scaled by degrade_factor
};

/// Canonical name ("reject", "defer", "degrade").
[[nodiscard]] std::string_view to_string(AdmissionPolicy policy);

/// Parse an admission-policy name; throws a ContractViolation listing the
/// accepted names on anything else.
[[nodiscard]] AdmissionPolicy parse_admission(std::string_view name);

/// City-scale hotspot federation (src/fed, DESIGN.md §13): N AP cells on
/// the sharded kernel, slab-backed client populations (10⁴–10⁶), client
/// roaming/handoff between cells, per-AP admission control under
/// flash-crowd arrival processes, and per-AP backhaul contention.  The
/// initial population and run length come from StreamConfig (clients,
/// duration, seed); everything federation-specific lives here.
struct FederationConfig {
    /// AP cells; distributed round-robin over the shards.
    int aps = 16;
    /// Kernel shards — must be >= 1 (federation always rides the sharded
    /// kernel; there is no single-queue federation path).
    int shards = 4;
    /// Worker threads; 0 = inline sequential reference execution.  Must
    /// not exceed shards (excess workers would never hold a shard).
    int threads = 0;

    // --- arrival process (deterministic seeded MMPP ramp per cell) ------
    /// Calm-state mean arrival rate per AP, in clients/second.
    double base_arrival_hz = 0.0;
    /// Elevated rate during the flash-crowd window (0 = no flash).
    double flash_arrival_hz = 0.0;
    Time flash_start = Time::from_seconds(60);
    Time flash_duration = Time::from_seconds(60);
    /// Mean exponential session length before a client departs.
    Time mean_session = Time::from_seconds(120);

    // --- roaming --------------------------------------------------------
    /// Clients roam to a uniformly chosen other AP after an exponential
    /// dwell (requires aps >= 2).
    bool roaming = false;
    Time mean_dwell = Time::from_seconds(45);

    // --- admission control ----------------------------------------------
    AdmissionPolicy admission = AdmissionPolicy::reject;
    /// Concurrent associations one AP accepts before the policy kicks in.
    int capacity_per_ap = 1024;
    /// Defer-mode retry interval.
    Time defer_retry = Time::from_seconds(2);
    /// Degrade-mode burst scale factor (0 < f <= 1).
    double degrade_factor = 0.5;

    // --- service / backhaul model ---------------------------------------
    /// Per-client stream rate (paper's MP3 default).
    Rate stream_rate = phy::calibration::kMp3Rate;
    /// Burst size scheduled per service round.
    DataSize target_burst = DataSize::from_kilobytes(48);
    /// Radio goodput an AP can deliver to one client.
    Rate radio_goodput = Rate::from_mbps(5.0);
    /// Shared backhaul feeding each AP; effective per-client goodput is
    /// min(radio, backhaul / associated) — the contention model.
    Rate backhaul_rate = Rate::from_mbps(20.0);

    // --- export ---------------------------------------------------------
    /// 1-in-N clients keep full ClientMetrics and energy-ledger causes;
    /// the rest exist only in the population summary (10⁶ clients cannot
    /// each carry a JSON ledger entry).
    int sample_stride = 64;
    /// Optional path for the streaming binary metrics export (obs
    /// metrics_stream.hpp); empty = no stream written.
    std::string stream_path;
    /// Optional path for the deterministic kernel health report JSON
    /// (obs/health_report.hpp); empty = no file written.  The rollup is
    /// always available in FederationResult::health.
    std::string health_path;

    FederationConfig& with_aps(int v) { aps = v; return *this; }
    FederationConfig& with_shards(int v) { shards = v; return *this; }
    FederationConfig& with_threads(int v) { threads = v; return *this; }
    FederationConfig& with_arrivals(double base_hz, double flash_hz,
                                    Time start, Time duration) {
        base_arrival_hz = base_hz;
        flash_arrival_hz = flash_hz;
        flash_start = start;
        flash_duration = duration;
        return *this;
    }
    FederationConfig& with_mean_session(Time v) { mean_session = v; return *this; }
    FederationConfig& with_roaming(Time dwell) {
        roaming = true;
        mean_dwell = dwell;
        return *this;
    }
    FederationConfig& with_admission(AdmissionPolicy v) { admission = v; return *this; }
    FederationConfig& with_capacity_per_ap(int v) { capacity_per_ap = v; return *this; }
    FederationConfig& with_defer_retry(Time v) { defer_retry = v; return *this; }
    FederationConfig& with_degrade_factor(double v) { degrade_factor = v; return *this; }
    FederationConfig& with_stream_rate(Rate v) { stream_rate = v; return *this; }
    FederationConfig& with_target_burst(DataSize v) { target_burst = v; return *this; }
    FederationConfig& with_radio_goodput(Rate v) { radio_goodput = v; return *this; }
    FederationConfig& with_backhaul_rate(Rate v) { backhaul_rate = v; return *this; }
    FederationConfig& with_sample_stride(int v) { sample_stride = v; return *this; }
    FederationConfig& with_health_path(std::string v) { health_path = std::move(v); return *this; }
    FederationConfig& with_stream_path(std::string v) {
        stream_path = std::move(v);
        return *this;
    }

    void validate() const;
};

/// Mixed heterogeneous workload through one Hotspot (paper intro: "most
/// of wireless data traffic is targeted at the infrastructure"):
///   * stored MP3 audio clients (as in Figure 2),
///   * live VBR video clients (~600 kb/s mean — too fast for Bluetooth,
///     the selector must put them on WLAN),
///   * bursty web-browsing clients (live ingest, no playout QoS — their
///     qos field reports the delivery ratio instead).
struct MixedWorkload {
    int mp3_clients = 2;
    int video_clients = 1;
    int web_clients = 1;

    MixedWorkload& with_mp3(int v) { mp3_clients = v; return *this; }
    MixedWorkload& with_video(int v) { video_clients = v; return *this; }
    MixedWorkload& with_web(int v) { web_clients = v; return *this; }

    [[nodiscard]] int total() const { return mp3_clients + video_clients + web_clients; }
    void validate() const;
};

/// Which power-management policy a scenario evaluates.
enum class Policy { cam, psm, ecmac, bt, hotspot, federation };

/// Canonical name ("cam", "psm", "ecmac", "bt", "hotspot", "federation").
[[nodiscard]] std::string_view to_string(Policy policy);

/// One scenario, fully described: policy + stream/world parameters +
/// policy-specific sub-config.  Fluent construction:
/// \code
///   auto spec = ScenarioSpec::psm()
///                   .with_clients(8)
///                   .with_duration(Time::from_seconds(120))
///                   .with_psm(PsmConfig{}.with_listen_interval(2));
///   spec.validate();
///   auto result = SimBackend().run(spec, /*seed=*/42);
/// \endcode
/// validate() rejects incoherent combinations (an EC-MAC superframe on a
/// cam run, a fault plan on a policy without injection hooks, ...) with
/// actionable messages.
class ScenarioSpec {
public:
    // Named constructors, one per policy.
    [[nodiscard]] static ScenarioSpec cam() { return ScenarioSpec{Policy::cam}; }
    [[nodiscard]] static ScenarioSpec psm() { return ScenarioSpec{Policy::psm}; }
    [[nodiscard]] static ScenarioSpec ecmac() { return ScenarioSpec{Policy::ecmac}; }
    [[nodiscard]] static ScenarioSpec bt() { return ScenarioSpec{Policy::bt}; }
    [[nodiscard]] static ScenarioSpec hotspot() { return ScenarioSpec{Policy::hotspot}; }
    /// A hotspot serving MixedWorkload{} (see with_mix).
    [[nodiscard]] static ScenarioSpec hotspot_mixed() {
        return ScenarioSpec{Policy::hotspot}.with_mix(MixedWorkload{});
    }
    [[nodiscard]] static ScenarioSpec federation() {
        return ScenarioSpec{Policy::federation};
    }

    ScenarioSpec() = default;

    // --- stream / world ---------------------------------------------------
    ScenarioSpec& with_stream(StreamConfig stream) {
        stream_ = std::move(stream);
        return *this;
    }
    ScenarioSpec& with_clients(int clients) {
        stream_.clients = clients;
        return *this;
    }
    ScenarioSpec& with_duration(Time duration) {
        stream_.duration = duration;
        return *this;
    }
    ScenarioSpec& with_fault_plan(fault::FaultPlan plan) {
        stream_.fault_plan = std::move(plan);
        return *this;
    }

    // --- policy sub-configs ----------------------------------------------
    ScenarioSpec& with_psm(PsmConfig config) {
        psm_ = config;
        psm_set_ = true;
        return *this;
    }
    ScenarioSpec& with_ecmac(EcmacConfig config) {
        ecmac_ = config;
        ecmac_set_ = true;
        return *this;
    }
    ScenarioSpec& with_hotspot(HotspotConfig config) {
        hotspot_ = std::move(config);
        hotspot_set_ = true;
        return *this;
    }
    /// Serve a hotspot's clients from \p mix, each row with its own contract
    /// and feed (stored MP3, live video, live web); stream.clients is ignored.
    ScenarioSpec& with_mix(MixedWorkload mix) {
        mix_ = mix;
        mix_set_ = true;
        return *this;
    }
    ScenarioSpec& with_federation(FederationConfig config) {
        fed_ = std::move(config);
        fed_set_ = true;
        return *this;
    }
    /// Select a per-station power policy by name, so one axis sweeps every
    /// policy the repo can run.  Rides the cam base policy:
    /// ScenarioSpec::cam().with_power_policy(...).  The event-driven kinds
    /// (micro_nap, pamas) drive src/policy stations; the alias kinds are
    /// rewritten here into the native spec — cam stays Policy::cam, psm
    /// becomes Policy::psm with a default PsmConfig at the config's
    /// beacon_interval (unless with_psm set one), ecmac becomes
    /// Policy::ecmac.
    ScenarioSpec& with_power_policy(policy::PowerPolicyConfig config);

    // --- accessors --------------------------------------------------------
    [[nodiscard]] Policy policy() const { return policy_; }
    [[nodiscard]] const StreamConfig& stream() const { return stream_; }
    [[nodiscard]] StreamConfig& stream() { return stream_; }
    [[nodiscard]] const PsmConfig& psm_config() const { return psm_; }
    [[nodiscard]] const EcmacConfig& ecmac_config() const { return ecmac_; }
    [[nodiscard]] const HotspotConfig& hotspot_config() const { return hotspot_; }
    [[nodiscard]] const MixedWorkload& mix() const { return mix_; }
    /// True when a MixedWorkload supplies a hotspot's clients.
    [[nodiscard]] bool has_mix() const { return mix_set_ && policy_ == Policy::hotspot; }
    [[nodiscard]] const FederationConfig& federation_config() const { return fed_; }
    /// True when an event-driven power policy (micro_nap, pamas) drives
    /// the stations; alias kinds have become the native policy instead.
    [[nodiscard]] bool has_power_policy() const {
        return power_set_ && policy_ == Policy::cam && power_.kind != policy::PolicyKind::cam;
    }
    [[nodiscard]] const policy::PowerPolicyConfig& power_policy_config() const { return power_; }
    [[nodiscard]] int clients() const { return has_mix() ? mix_.total() : stream_.clients; }
    [[nodiscard]] Time duration() const { return stream_.duration; }

    /// Scenario label matching the historical ScenarioResult labels
    /// ("wlan-cam", "wlan-psm", "ec-mac", "bt-active", "hotspot-<sched>",
    /// "hotspot-mixed-<sched>", "hotspot-sharded-<sched>").
    [[nodiscard]] std::string label() const;

    /// One-line serialized description: "policy=psm clients=3
    /// duration_s=300 listen_interval=2 ..." — stable key order, only
    /// non-default policy fields, suitable for logs and grid labels.
    [[nodiscard]] std::string describe() const;

    /// Reject structurally invalid or incoherent specs with a
    /// ContractViolation whose message names the offending field and the
    /// fix.  Backends call this before running.
    void validate() const;

private:
    explicit ScenarioSpec(Policy policy) : policy_(policy) {}

    Policy policy_ = Policy::cam;
    StreamConfig stream_;
    PsmConfig psm_;
    EcmacConfig ecmac_;
    HotspotConfig hotspot_;
    MixedWorkload mix_;
    FederationConfig fed_;
    policy::PowerPolicyConfig power_;
    // Sub-configs explicitly set via with_* — validate() rejects ones that
    // do not belong to the chosen policy.
    bool psm_set_ = false;
    bool ecmac_set_ = false;
    bool hotspot_set_ = false;
    bool mix_set_ = false;
    bool fed_set_ = false;
    bool power_set_ = false;
    // The first with_power_policy call found a cam base (later calls
    // re-select on it); validate() refuses a power policy otherwise.
    bool power_on_cam_ = false;
};

/// The fault kinds a scenario's simulated world binds an injector hook
/// for (one bit per fault::FaultKind), and a hint naming them.
struct FaultSurface {
    std::uint32_t kinds = 0;
    const char* hint = "";

    [[nodiscard]] bool accepts(fault::FaultKind kind) const {
        return ((kinds >> static_cast<unsigned>(kind)) & 1u) != 0;
    }
};

/// The fault table: what \p spec's world injects (scenarios.cpp; the
/// binders are BssWorld::bind_faults and the hotspot's, in
/// hotspot_world.cpp); validate() refuses every other kind, so a
/// validated plan always arms.
[[nodiscard]] FaultSurface injectable_faults(const ScenarioSpec& spec);

}  // namespace wlanps::core
