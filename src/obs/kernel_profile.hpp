#pragma once
/// \file kernel_profile.hpp
/// Event-kernel profiling sink.  A KernelProfile attached to a Simulator
/// (Simulator::attach_profile, WLANPS_OBS builds only) receives one call
/// per dispatched event with the callback tag and wall-clock dispatch
/// latency, plus calendar-queue maintenance signals, and folds them into a
/// MetricsRegistry under stable "sim.kernel.*" keys.
///
/// Overhead contract: with observability compiled in but NO profile
/// attached, the kernel pays one predicted-not-taken branch per dispatch —
/// that is the <5% budget scripts/check_perf.sh gates.  The steady_clock
/// reads happen only on this attached path.

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace wlanps::obs {

/// Which Simulator dispatch path fired the event.
enum class DispatchTag : std::uint8_t { fast = 0, handle = 1, periodic = 2 };

class KernelProfile {
public:
    /// Record into \p registry (must outlive this profile).
    explicit KernelProfile(MetricsRegistry& registry)
        : registry_(&registry),
          dispatched_{&registry.counter("sim.kernel.dispatched.fast"),
                      &registry.counter("sim.kernel.dispatched.handle"),
                      &registry.counter("sim.kernel.dispatched.periodic")},
          dispatch_ns_{&registry.histogram("sim.kernel.dispatch_ns.fast"),
                       &registry.histogram("sim.kernel.dispatch_ns.handle"),
                       &registry.histogram("sim.kernel.dispatch_ns.periodic")},
          cancelled_reaped_(&registry.counter("sim.kernel.cancelled_reaped")),
          bucket_occupancy_(&registry.histogram("sim.kernel.bucket_occupancy")) {}

    /// Monotonic wall-clock nanoseconds, for latency deltas.
    [[nodiscard]] static std::uint64_t clock_ns() {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /// One event dispatched on path \p tag, callback took \p latency_ns.
    void on_dispatch(DispatchTag tag, std::uint64_t latency_ns) {
        const auto i = static_cast<std::size_t>(tag);
        dispatched_[i]->add(1);
        dispatch_ns_[i]->record(static_cast<double>(latency_ns));
    }

    /// A cancelled (tombstoned) entry was reaped without dispatching.
    void on_cancelled_reaped() { cancelled_reaped_->add(1); }

    /// The dispatch cursor advanced onto a calendar-queue bucket holding
    /// \p entries events (the wheel geometry shows up here).
    void on_bucket_reached(std::size_t entries) {
        bucket_occupancy_->record(static_cast<double>(entries));
    }

    /// Publish end-of-run queue state under unambiguous names: the raw
    /// queue size *includes* cancelled tombstones awaiting reap, the live
    /// count does not — dashboards must not conflate the two (callers pass
    /// Simulator::queue_size(), ::pending_events(), ::events_dispatched()).
    void publish_queue_state(std::size_t queue_size_incl_tombstones,
                             std::size_t pending_live,
                             std::uint64_t events_dispatched) {
        registry_->gauge("sim.queue.entries_incl_tombstones")
            .set(static_cast<double>(queue_size_incl_tombstones));
        registry_->gauge("sim.queue.pending_live")
            .set(static_cast<double>(pending_live));
        registry_->counter("sim.kernel.events_dispatched").add(events_dispatched);
    }

    [[nodiscard]] MetricsRegistry& registry() { return *registry_; }

private:
    MetricsRegistry* registry_;
    Counter* dispatched_[3];
    Histogram* dispatch_ns_[3];
    Counter* cancelled_reaped_;
    Histogram* bucket_occupancy_;
};

}  // namespace wlanps::obs
