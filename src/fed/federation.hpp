#pragma once
/// \file federation.hpp
/// City-scale hotspot federation (DESIGN.md §13).
///
/// A Federation composes N AP cells on the sharded barrier-quantum kernel
/// (sim/sharded.hpp): cell a lives on shard a % shards, owns the slab
/// rows of its associated clients, and advances them with shard-local
/// events — burst service, roam timers, arrivals, faults.  Clients roam
/// between cells via disassociate → cross-shard mailbox handoff →
/// re-admission, so every cross-cell interaction rides the kernel's
/// deterministic (time, shard, seq) merge and the whole run is
/// bit-identical at every worker-thread count under the strict barrier.
///
/// The population lives in a struct-of-arrays ClientSlab (≤ 96 B/client,
/// static_assert'd); per-client results are exported stride-sampled, the
/// population as a whole is reduced into a PopulationSummary with a
/// FNV-1a fingerprint over the canonical per-row serialization — the
/// value the determinism CI gate compares across thread counts.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "fed/client_slab.hpp"
#include "obs/health_report.hpp"
#include "obs/watchdog.hpp"
#include "sim/random.hpp"
#include "sim/sharded.hpp"

namespace wlanps::fed {

class ApCell;

/// Whole-population reduction of one federation run.
struct PopulationSummary {
    std::uint64_t population = 0;  ///< slab rows ever used (initial + arrivals)
    std::uint64_t arrivals = 0;    ///< admission attempts that reached a cell
    std::uint64_t arrivals_truncated = 0;  ///< planned arrivals past the slab ceiling
    std::uint64_t departures = 0;
    std::uint64_t rejected = 0;   ///< admissions turned away (reject policy)
    std::uint64_t deferred = 0;   ///< admissions parked for retry (defer policy)
    std::uint64_t degraded = 0;   ///< admissions under the degrade policy
    std::uint64_t roams = 0;      ///< completed handoffs
    std::uint64_t handoff_failures = 0;
    std::uint64_t bursts_admitted = 0;
    std::uint64_t bursts_completed = 0;
    std::uint64_t bursts_shed = 0;
    std::uint64_t delivered_bits = 0;
    double energy_j = 0.0;  ///< total WNIC energy across the population
    std::uint64_t faults_injected = 0;
    std::uint64_t faults_missed = 0;  ///< per-client faults whose target had roamed away
    std::uint64_t peak_association = 0;  ///< max concurrent associations on any one cell
    /// FNV-1a over every row's canonical fixed-width serialization plus
    /// the counters above — identical iff two runs produced identical
    /// population results.
    std::uint64_t fingerprint = 0;

    /// Burst conservation: every admitted burst either completed or was
    /// shed, exactly.
    [[nodiscard]] bool conserved() const {
        return bursts_admitted == bursts_completed + bursts_shed;
    }
};

/// One federation run's outputs: the backend-shaped ScenarioResult
/// (stride-sampled clients), the population reduction, and the kernel
/// health rollup (shard/cell attribution, watchdog state).
struct FederationResult {
    core::ScenarioResult scenario;
    PopulationSummary population;
    obs::HealthReport health;
};

/// Owns the kernel, the slab, and the cells for one run.  Single-use:
/// construct, run(), read the result.
class Federation {
public:
    /// \p spec must be a validated Policy::federation spec; \p seed
    /// overrides the stream seed (the backend's per-run seed).
    Federation(const core::ScenarioSpec& spec, std::uint64_t seed);
    explicit Federation(const core::ScenarioSpec& spec);
    ~Federation();
    Federation(const Federation&) = delete;
    Federation& operator=(const Federation&) = delete;

    [[nodiscard]] FederationResult run();

    // --- cell-facing internals (ApCell drives these) ----------------------
    [[nodiscard]] const core::FederationConfig& config() const { return config_; }
    [[nodiscard]] const core::StreamConfig& stream() const { return stream_; }
    [[nodiscard]] ClientSlab& slab() { return *slab_; }
    [[nodiscard]] sim::ShardedSimulator& kernel() { return *kernel_; }
    [[nodiscard]] std::size_t shard_count() const {
        return static_cast<std::size_t>(config_.shards);
    }
    [[nodiscard]] std::size_t shard_of_ap(std::uint32_t ap) const { return ap % shard_count(); }
    [[nodiscard]] ApCell& cell(std::uint32_t ap) { return *cells_[ap]; }
    [[nodiscard]] std::uint32_t ap_count() const {
        return static_cast<std::uint32_t>(cells_.size());
    }

    /// Route client \p id from cell \p from_ap to cell \p to_ap through the
    /// cross-shard mailbox (or a local post when both live on one shard —
    /// same lookahead either way, so the schedule is layout-independent).
    void post_handoff(std::uint32_t from_ap, std::uint32_t to_ap, std::uint32_t id);

    /// Cause-resolved energy cells for stride-sampled client \p id —
    /// array of 3 doubles (idle_listen, mode_switch, burst_rx), written
    /// only by the row's owning shard.  nullptr when \p id is unsampled.
    [[nodiscard]] double* sampled_causes(std::uint32_t id);

private:
    void build_cells();
    void plan_faults();
    /// Population-wide nic-lockup on \p shard: each of its cells rolls
    /// \p probability; the hit cells' associated rows wedge until \p until.
    void lockup_shard(std::size_t shard, double probability, Time until);
    [[nodiscard]] PopulationSummary summarize() const;
    void write_stream_samples(Time at);
    /// Register the continuously-swept invariants (burst conservation,
    /// slab epoch monotonicity, slab state validity) with \p watchdog.
    /// Checks read cross-shard state, so sweeps must come from the owning
    /// thread between run_until() chunks (workers parked).
    void register_watchdog_checks(obs::Watchdog& watchdog);
    /// Register the teardown-time invariants (exact conservation,
    /// energy-ledger telescoping drift, fingerprint stability) against
    /// the finished run's \p pop; swept once after summarize().
    void register_final_checks(obs::Watchdog& watchdog, const PopulationSummary& pop);
    [[nodiscard]] obs::HealthReport build_health(const PopulationSummary& pop,
                                                 const obs::Watchdog* watchdog) const;

    core::FederationConfig config_;
    core::StreamConfig stream_;
    std::string label_;
    std::unique_ptr<sim::ShardedSimulator> kernel_;
    std::unique_ptr<ClientSlab> slab_;
    std::vector<std::unique_ptr<ApCell>> cells_;
    std::size_t population_ = 0;  // rows actually planned (<= slab capacity)
    std::uint64_t arrivals_truncated_ = 0;
    std::vector<std::array<double, 3>> sampled_causes_;
    // Streaming export (optional).
    std::unique_ptr<class StreamState> stream_state_;
    // Per-quantum kernel attribution, attached when an obs registry is
    // scoped or a health path is requested (WLANPS_OBS builds only).
    std::unique_ptr<obs::ShardTelemetry> telemetry_;
};

/// Run one federation scenario end to end.  The entry point
/// core::SimBackend dispatches Policy::federation to.
[[nodiscard]] FederationResult run_federation(const core::ScenarioSpec& spec);
[[nodiscard]] FederationResult run_federation(const core::ScenarioSpec& spec,
                                              std::uint64_t seed);

}  // namespace wlanps::fed
