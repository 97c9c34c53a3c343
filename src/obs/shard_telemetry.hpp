#pragma once
/// \file shard_telemetry.hpp
/// Per-quantum, per-shard attribution for the barrier-quantum kernel.
///
/// The sharded kernel's existing ShardStats answer "what happened over the
/// whole run"; adaptive quantum sizing (ROADMAP item 1) needs the next
/// derivative — where each quantum's time went, shard by shard: dispatch
/// vs mailbox flush, events per quantum, and how skewed the load was
/// across shards while it ran.  A ShardTelemetry instance is
/// attached to a ShardedSimulator (sim/sharded.hpp) and fed by the
/// coordinator after every quantum barrier; the recording call sites in
/// the kernel compile to nothing unless the build sets WLANPS_OBS_ENABLED
/// (cmake -DWLANPS_OBS=ON), mirroring KernelProfile.
///
/// Determinism contract: everything derived from event counts (events per
/// quantum, busy quanta, the skew histogram, imbalance_index()) is
/// bit-identical across worker-thread counts, because the kernel
/// dispatches identical events per shard per quantum at every thread
/// count.  Wall-clock lanes (dispatch_ns, flush_ns, imbalance_index_ns())
/// are inherently run-dependent: they reach the HealthReport's timing
/// section only, never the metrics registry, so determinism gates can
/// compare every snapshot.
///
/// Cost contract: event counts are recorded every quantum (they reuse
/// counters the kernel keeps anyway), but the dispatch/flush wall clocks
/// need two steady_clock reads per shard per quantum — enough to blow the
/// 5% obs-overhead budget on short quanta.  The kernel therefore times
/// only every timing_stride()-th quantum and this class scales the
/// sampled sums back up by the stride, so dispatch_ns / flush_ns /
/// imbalance_index_ns() stay whole-run *estimates* (exact at stride 1).
/// The sampling cadence is deterministic, not load-dependent.
///
/// Everything here is std-only; the kernel links wlanps_obs already.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace wlanps::obs {

/// Accumulated per-quantum attribution for the shards of one kernel.
/// Single-writer: the kernel's coordinating thread calls record_shard()
/// for every shard and then commit_quantum(), strictly between barriers.
class ShardTelemetry {
public:
    /// Whole-run accumulation for one shard.
    struct Lane {
        std::uint64_t events = 0;        ///< events dispatched across all quanta
        std::uint64_t busy_quanta = 0;   ///< quanta in which the shard dispatched work
        std::uint64_t max_events_quantum = 0;
        std::uint64_t cross_flushed = 0;  ///< mailbox events delivered to it
        std::uint64_t dispatch_ns = 0;    ///< run_until wall clock, stride-scaled estimate
        std::uint64_t flush_ns = 0;       ///< inbox-flush wall clock, stride-scaled estimate
        Histogram events_per_quantum;     ///< busy quanta only (idle quanta skew nothing)
    };

    /// \p timing_stride: the kernel takes wall-clock samples on every
    /// timing_stride-th quantum (1 = time everything; see the file
    /// comment's cost contract).
    explicit ShardTelemetry(std::size_t shards, std::uint64_t timing_stride = 16);

    [[nodiscard]] std::size_t shard_count() const { return lanes_.size(); }
    [[nodiscard]] const Lane& lane(std::size_t i) const;
    [[nodiscard]] std::uint64_t timing_stride() const { return timing_stride_; }

    // --- kernel-facing recording (coordinator thread, between barriers) ---
    /// Stage shard \p i's numbers for the quantum being committed.  The
    /// _ns arguments are raw samples (zero on untimed quanta); they are
    /// scaled by timing_stride() as they accumulate.
    void record_shard(std::size_t i, std::uint64_t events, std::uint64_t dispatch_ns,
                      std::uint64_t flush_ns, std::uint64_t cross_flushed);
    /// Fold the staged shards into the run accumulation and reset staging.
    void commit_quantum();

    // --- derived measures --------------------------------------------------
    [[nodiscard]] std::uint64_t quanta() const { return quanta_; }
    /// Load-imbalance index over event counts: sum over busy quanta of the
    /// max-shard event count, divided by the same sum of the cross-shard
    /// mean.  1.0 = perfectly balanced; K on K shards = one shard does all
    /// the work.  Deterministic.  0.0 when no quantum dispatched anything.
    [[nodiscard]] double imbalance_index() const;
    /// Same index over wall-clock dispatch time.  Not deterministic.
    [[nodiscard]] double imbalance_index_ns() const;
    /// Distribution of per-quantum max/mean event ratios (busy quanta).
    [[nodiscard]] const Histogram& skew() const { return skew_; }
    [[nodiscard]] std::uint64_t total_dispatch_ns() const;
    [[nodiscard]] std::uint64_t total_flush_ns() const;

    /// Fold the deterministic lanes into \p registry in (shard, metric)
    /// order: per shard sim.shard.<i>.{events,busy_quanta,cross_flushed,
    /// max_events_quantum,events_per_quantum}, then the aggregates
    /// sim.shard.imbalance.{index,skew}.
    void publish(MetricsRegistry& registry) const;

private:
    struct Staged {
        std::uint64_t events = 0;
        std::uint64_t dispatch_ns = 0;
    };

    std::vector<Lane> lanes_;
    std::vector<Staged> staged_;  // reset by commit_quantum
    std::uint64_t timing_stride_ = 16;
    std::uint64_t quanta_ = 0;
    // Imbalance accumulators (events deterministic, ns wall-clock).
    std::uint64_t sum_max_events_ = 0;
    std::uint64_t sum_events_ = 0;
    std::uint64_t sum_max_dispatch_ns_ = 0;
    std::uint64_t sum_dispatch_ns_ = 0;
    Histogram skew_;
};

}  // namespace wlanps::obs
