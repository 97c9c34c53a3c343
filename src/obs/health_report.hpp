#pragma once
/// \file health_report.hpp
/// Kernel health rollup: per-shard → per-cell → run-level summary of the
/// barrier-quantum execution, the federation population, and the watchdog.
///
/// A HealthReport is the flat answer to "how did the parallel run behave"
/// — shard load and imbalance, mailbox pressure, idle jumps, invariant
/// violations — exported three ways: deterministic JSON
/// (hotspot_cli --obs-health FILE), WPSM summary frames riding the
/// federation metrics stream (decoded by scripts/bench_diff.py as
/// summary.health.*), and in-memory (bench_perf_kernel turns it into its
/// shard counters).
///
/// Determinism: to_json(false) — the default export — contains only
/// fields that are bit-identical across worker-thread counts (event
/// counts, mailbox peaks, watchdog state).
/// to_json(true) appends the wall-clock "timing" section (barrier wait,
/// dispatch/flush attribution, time-based imbalance); CI determinism
/// gates must not compare that section.
///
/// The struct is std-only; the builders live with the data they read
/// (ShardedSimulator::fill_health, Federation::run).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/watchdog.hpp"

namespace wlanps::obs {

class MetricsStreamWriter;

/// One shard's rollup.  Event counts are deterministic; the _ns fields
/// are wall clock and stay zero unless telemetry ran in an
/// WLANPS_OBS_ENABLED build.
struct ShardHealth {
    std::uint32_t shard = 0;
    std::uint64_t events = 0;
    std::uint64_t cross_sent = 0;
    std::uint64_t cross_received = 0;
    std::uint64_t mailbox_peak = 0;
    std::uint64_t busy_quanta = 0;
    std::uint64_t max_events_quantum = 0;
    std::uint64_t dispatch_ns = 0;  ///< timing section only
    std::uint64_t flush_ns = 0;     ///< timing section only
};

/// One federation cell's rollup (cells map onto shards ap % shards).
struct CellHealth {
    std::uint32_t cell = 0;
    std::uint32_t shard = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;
    std::uint64_t rejected = 0;
    std::uint64_t deferred = 0;
    std::uint64_t degraded = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t faults_missed = 0;
    std::uint64_t peak_association = 0;
};

/// The full rollup for one run.
struct HealthReport {
    std::string scope;  ///< "sharded-hotspot" | "federation" | run label
    std::uint64_t shards = 0;
    /// Resolved worker threads (0 = inline).  Reported in the timing
    /// section only: the deterministic JSON body must be byte-identical
    /// across thread counts.
    std::uint64_t workers = 0;
    std::uint64_t quanta = 0;
    std::uint64_t idle_jumps = 0;
    std::uint64_t events = 0;  ///< total dispatched across shards
    /// Load-imbalance index (max/mean events per quantum when telemetry
    /// ran; whole-run max/mean shard events otherwise).  1.0 = balanced.
    double imbalance_index = 0.0;
    /// Skew-histogram summary over busy quanta (telemetry builds only).
    std::uint64_t skew_count = 0;
    double skew_mean = 0.0;
    double skew_max = 0.0;

    std::vector<ShardHealth> per_shard;
    std::vector<CellHealth> per_cell;  ///< federation runs only

    // Federation population section (has_population gates it).
    bool has_population = false;
    std::uint64_t population = 0;
    std::uint64_t bursts_admitted = 0;
    std::uint64_t bursts_completed = 0;
    std::uint64_t bursts_shed = 0;
    bool conserved = true;
    std::uint64_t fingerprint = 0;

    // Watchdog section (has_watchdog gates it).
    bool has_watchdog = false;
    std::uint64_t watchdog_checks = 0;
    std::uint64_t watchdog_sweeps = 0;
    std::vector<WatchdogReport> watchdog_reports;

    // Timing section — wall clock, excluded from to_json(false).
    std::uint64_t barrier_wait_ns = 0;   ///< summed over workers and quanta
    std::uint64_t dispatch_ns = 0;       ///< summed over shards
    std::uint64_t flush_ns = 0;          ///< summed over shards
    double imbalance_index_ns = 0.0;
    /// barrier_wait / (barrier_wait + dispatch); 0 when neither measured.
    [[nodiscard]] double barrier_overhead() const;

    /// Copy a watchdog's state into the watchdog section.
    void set_watchdog(const Watchdog& watchdog);

    /// Deterministic flat JSON; \p include_timing appends the wall-clock
    /// section (see the file comment for the determinism contract).
    [[nodiscard]] std::string to_json(bool include_timing = false) const;

    /// Write to_json(include_timing) + newline to \p path; throws
    /// ContractViolation when the file cannot be opened.
    void write_file(const std::string& path, bool include_timing = false) const;

    /// Append the deterministic scalars as WPSM summary frames
    /// (health.quanta, health.idle_jumps, health.events,
    /// health.imbalance_index, health.watchdog_violations, and per shard
    /// health.shard<i>.events / .mailbox_peak).
    void export_stream(MetricsStreamWriter& writer) const;
};

}  // namespace wlanps::obs
