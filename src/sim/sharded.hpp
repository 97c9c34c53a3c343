#pragma once
/// \file sharded.hpp
/// Conservative parallel discrete-event execution.
///
/// A ShardedSimulator partitions a simulated world across N shards, each
/// owning a private Simulator (its own calendar queue, slab pool, and —
/// by convention — RNG streams), and advances them in lockstep quanta.
/// Cross-shard events travel through fixed-capacity mailboxes that are
/// flushed at quantum boundaries in deterministic (time, source shard,
/// sender sequence) order, so the execution is bit-reproducible at every
/// worker-thread count, including the inline threads=0 reference.
///
/// The quantum is the declared cross-shard lookahead (DESIGN.md §12).  A
/// message sent at local time t carries a timestamp >= t + lookahead,
/// which is >= the end of the sending quantum, so flushing inboxes at the
/// next quantum start never delivers into a shard's past: the parallel
/// run dispatches exactly the events, in exactly the order, of the
/// sequential (threads=0) execution of the same sharded world.  A late
/// cross-shard event is a contract violation.
///
/// The kernel is workload-agnostic: src/fed builds the city-scale
/// hotspot federation on top of it.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/shard_telemetry.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wlanps::obs {
struct HealthReport;
}  // namespace wlanps::obs

namespace wlanps::sim {

/// Sharded-execution parameters.
struct ShardedConfig {
    std::size_t shards = 1;
    /// Worker threads.  0 = run every quantum inline on the calling
    /// thread, shards in index order — the sequential reference execution
    /// every thread count is bit-identical to.
    std::size_t threads = 0;
    /// Minimum delay of any cross-shard event, measured from the sender's
    /// local clock at post time.  Also the quantum.
    Time lookahead = Time::from_ms(10);
    /// Per-shard mailbox capacity; exceeding it is a contract violation
    /// (deterministic, not a silent drop).
    std::size_t mailbox_capacity = 4096;

    ShardedConfig& with_shards(std::size_t v) { shards = v; return *this; }
    ShardedConfig& with_threads(std::size_t v) { threads = v; return *this; }
    ShardedConfig& with_lookahead(Time v) { lookahead = v; return *this; }
    ShardedConfig& with_mailbox_capacity(std::size_t v) { mailbox_capacity = v; return *this; }

    void validate() const;
};

/// Per-shard accounting, stable across thread counts.
struct ShardStats {
    std::uint64_t events_dispatched = 0;
    std::uint64_t cross_sent = 0;      ///< cross-shard events this shard posted
    std::uint64_t cross_received = 0;  ///< cross-shard events flushed into it
    std::size_t mailbox_peak = 0;      ///< high-water inbox depth
};

/// N private Simulators in barrier-quantum lockstep.  Not copyable.
///
/// Threading contract: between run_until() calls (and during construction
/// and teardown) every shard may be touched from the owning thread only.
/// During a run, shard i's Simulator is driven exclusively by one worker
/// (a fixed shard->worker map), and the only cross-thread channel is
/// post_cross(), which is safe to call from any shard's event callbacks.
class ShardedSimulator {
public:
    explicit ShardedSimulator(ShardedConfig config);
    ~ShardedSimulator();
    ShardedSimulator(const ShardedSimulator&) = delete;
    ShardedSimulator& operator=(const ShardedSimulator&) = delete;

    [[nodiscard]] const ShardedConfig& config() const { return config_; }
    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

    /// Shard i's private kernel.  Build shard-local components against
    /// this exactly as against a standalone Simulator.
    [[nodiscard]] Simulator& shard(std::size_t i);

    /// Global synchronized time: the last completed quantum boundary
    /// (every shard's local now() equals this between quanta).
    [[nodiscard]] Time now() const { return now_; }

    /// Route \p callback to shard \p to, firing at \p when on its clock.
    /// \p when must be >= shard \p from's now() + lookahead when the
    /// shards differ (the conservative-sync contract); same-shard posts
    /// are a plain local post_at.  Callable from shard \p from's event
    /// callbacks while a run is in progress, or from the owning thread
    /// between runs.
    void post_cross(std::size_t from, std::size_t to, Time when, InlineCallback callback);

    /// Advance every shard to \p horizon in lockstep quanta.  Afterwards
    /// each shard's now() == horizon.  Callbacks' exceptions propagate
    /// (first one wins under parallel execution).
    void run_until(Time horizon);

    // --- accounting -------------------------------------------------------
    [[nodiscard]] ShardStats stats(std::size_t i) const;
    [[nodiscard]] std::uint64_t quanta() const { return quanta_; }
    /// Quanta whose start was fast-forwarded over an empty window.
    [[nodiscard]] std::uint64_t idle_jumps() const { return idle_jumps_; }

    /// Attach per-quantum attribution (obs/shard_telemetry.hpp).  The
    /// telemetry object must outlive every run_until(); recording sites
    /// compile to nothing unless the build sets WLANPS_OBS_ENABLED, so an
    /// attached telemetry stays empty in plain builds.  Pass nullptr to
    /// detach.  Call from the owning thread between runs.
    void attach_telemetry(obs::ShardTelemetry* telemetry) { telemetry_ = telemetry; }
    [[nodiscard]] obs::ShardTelemetry* telemetry() const { return telemetry_; }

    /// Fold sharded-execution metrics into \p registry:
    ///   sim.shard.dispatched (histogram across shards),
    ///   sim.shard.mailbox_depth_peak / .mailbox_depth (gauges),
    ///   sim.shard.cross_events / .quanta / .idle_jumps (counters), and
    ///   the attached telemetry's deterministic lanes.  Wall-clock
    ///   timing reaches the HealthReport only (fill_health), so the
    ///   snapshot is bit-identical across worker-thread counts.
    /// Call from the owning thread after run_until().
    void publish_metrics(obs::MetricsRegistry& registry) const;

    /// Fill the kernel section of \p report: shard/worker/quantum counts,
    /// per-shard rollups (ShardStats always; telemetry lanes and the
    /// dispatch/flush timing when telemetry ran), the barrier-wait total,
    /// and the imbalance index — per-quantum when telemetry ran, whole-run
    /// otherwise.
    /// Call from the owning thread after run_until().
    void fill_health(obs::HealthReport& report) const;

private:
    struct CrossEvent {
        Time when;
        std::uint32_t src = 0;   // sending shard
        std::uint64_t seq = 0;   // per-sender monotonic
        InlineCallback callback;
    };

    /// Deterministic merge order for simultaneous cross-shard arrivals.
    [[nodiscard]] static bool cross_less(const CrossEvent& a, const CrossEvent& b) {
        if (a.when != b.when) return a.when < b.when;
        if (a.src != b.src) return a.src < b.src;
        return a.seq < b.seq;
    }

    struct Shard {
        Simulator sim;
        ShardStats stats;
        std::uint64_t send_seq = 0;  // written only by the owning thread

        std::mutex inbox_mutex;
        std::vector<CrossEvent> inbox;       // guarded by inbox_mutex
        Time inbox_min = Time::max();        // guarded by inbox_mutex

        // Per-quantum telemetry staging, written by the shard's driver
        // during the quantum (the barrier's acq_rel handoff publishes it
        // to the coordinator) and read back after the barrier.  Only
        // touched when telemetry is attached in an obs build.
        std::uint64_t q_events = 0;
        std::uint64_t q_dispatch_ns = 0;
        std::uint64_t q_flush_ns = 0;
        std::uint64_t q_cross_base = 0;  // cross_received before this flush
    };

    void flush_inbox(Shard& sh);
    void run_one_shard(Shard& sh, Time quantum_end);
    void run_shard_span(std::size_t worker, Time quantum_end);
    void run_quantum(Time quantum_end);
    void record_quantum_telemetry();
    [[nodiscard]] Time next_work_time();
    void start_workers();
    void worker_loop(std::size_t worker);

    ShardedConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
    Time now_ = Time::zero();
    std::uint64_t quanta_ = 0;
    std::uint64_t idle_jumps_ = 0;
    std::uint64_t barrier_wait_ns_ = 0;  // summed over workers and quanta; owning thread
    obs::ShardTelemetry* telemetry_ = nullptr;  // optional, owned by the caller
    // Telemetry timing stride (obs builds): set by the coordinator at the
    // top of each quantum, read by shard drivers under the barrier's
    // happens-before.
    std::uint64_t quantum_seq_ = 0;
    bool time_this_quantum_ = false;

    // Worker pool (threads > 0), started lazily on the first run_until.
    std::size_t worker_count_ = 0;
    std::vector<std::thread> workers_;
    std::vector<std::uint64_t> worker_finish_ns_;
    std::mutex pool_mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    std::uint64_t generation_ = 0;   // guarded by pool_mutex_
    Time quantum_target_;            // guarded by pool_mutex_
    bool shutdown_ = false;          // guarded by pool_mutex_
    std::atomic<std::size_t> remaining_{0};
    std::mutex error_mutex_;
    std::exception_ptr first_error_;  // guarded by error_mutex_
};

}  // namespace wlanps::sim
