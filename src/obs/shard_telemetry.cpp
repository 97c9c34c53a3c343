#include "obs/shard_telemetry.hpp"

#include <algorithm>

#include "sim/assert.hpp"

namespace wlanps::obs {

ShardTelemetry::ShardTelemetry(std::size_t shards, std::uint64_t timing_stride)
    : timing_stride_(timing_stride) {
    WLANPS_REQUIRE_MSG(shards >= 1, "ShardTelemetry needs at least one shard");
    WLANPS_REQUIRE_MSG(timing_stride >= 1,
                       "ShardTelemetry timing stride must be >= 1");
    lanes_.resize(shards);
    staged_.resize(shards);
}

const ShardTelemetry::Lane& ShardTelemetry::lane(std::size_t i) const {
    WLANPS_REQUIRE_MSG(i < lanes_.size(), "shard index out of range");
    return lanes_[i];
}

void ShardTelemetry::record_shard(std::size_t i, std::uint64_t events,
                                  std::uint64_t dispatch_ns, std::uint64_t flush_ns,
                                  std::uint64_t cross_flushed) {
    WLANPS_REQUIRE_MSG(i < lanes_.size(), "shard index out of range");
    Lane& lane = lanes_[i];
    lane.events += events;
    // Raw samples arrive only on timed quanta; scaling by the stride keeps
    // the accumulated lanes whole-run time estimates (see file comment).
    lane.dispatch_ns += dispatch_ns * timing_stride_;
    lane.flush_ns += flush_ns * timing_stride_;
    lane.cross_flushed += cross_flushed;
    if (events > 0) {
        ++lane.busy_quanta;
        lane.max_events_quantum = std::max(lane.max_events_quantum, events);
        lane.events_per_quantum.record(static_cast<double>(events));
    }
    staged_[i].events = events;
    staged_[i].dispatch_ns = dispatch_ns;
}

void ShardTelemetry::commit_quantum() {
    std::uint64_t total_events = 0;
    std::uint64_t max_events = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    for (Staged& s : staged_) {
        total_events += s.events;
        max_events = std::max(max_events, s.events);
        total_ns += s.dispatch_ns;
        max_ns = std::max(max_ns, s.dispatch_ns);
        s = Staged{};
    }
    ++quanta_;
    if (total_events > 0) {
        sum_max_events_ += max_events;
        sum_events_ += total_events;
        // max / mean for this quantum; >= 1 by construction, and the
        // histogram of these ratios is the skew distribution.
        skew_.record(static_cast<double>(max_events) *
                     static_cast<double>(lanes_.size()) /
                     static_cast<double>(total_events));
    }
    if (total_ns > 0) {
        sum_max_dispatch_ns_ += max_ns;
        sum_dispatch_ns_ += total_ns;
    }
}

double ShardTelemetry::imbalance_index() const {
    if (sum_events_ == 0) return 0.0;
    const double mean_sum =
        static_cast<double>(sum_events_) / static_cast<double>(lanes_.size());
    return static_cast<double>(sum_max_events_) / mean_sum;
}

double ShardTelemetry::imbalance_index_ns() const {
    if (sum_dispatch_ns_ == 0) return 0.0;
    const double mean_sum =
        static_cast<double>(sum_dispatch_ns_) / static_cast<double>(lanes_.size());
    return static_cast<double>(sum_max_dispatch_ns_) / mean_sum;
}

std::uint64_t ShardTelemetry::total_dispatch_ns() const {
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_) total += lane.dispatch_ns;
    return total;
}

std::uint64_t ShardTelemetry::total_flush_ns() const {
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_) total += lane.flush_ns;
    return total;
}

void ShardTelemetry::publish(MetricsRegistry& registry) const {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        const Lane& lane = lanes_[i];
        const std::string prefix = "sim.shard." + std::to_string(i) + ".";
        registry.counter(prefix + "events").add(lane.events);
        registry.counter(prefix + "busy_quanta").add(lane.busy_quanta);
        registry.counter(prefix + "cross_flushed").add(lane.cross_flushed);
        registry.gauge(prefix + "max_events_quantum")
            .set(static_cast<double>(lane.max_events_quantum));
        registry.histogram(prefix + "events_per_quantum")
            .merge_from(lane.events_per_quantum);
    }
    registry.gauge("sim.shard.imbalance.index").set(imbalance_index());
    registry.histogram("sim.shard.imbalance.skew").merge_from(skew_);
}

}  // namespace wlanps::obs
