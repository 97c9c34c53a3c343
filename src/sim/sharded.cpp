#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/health_report.hpp"
#include "sim/assert.hpp"

namespace wlanps::sim {

namespace {

[[nodiscard]] std::uint64_t steady_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace

void ShardedConfig::validate() const {
    WLANPS_REQUIRE_MSG(shards >= 1, "need at least one shard");
    WLANPS_REQUIRE_MSG(lookahead > Time::zero(), "cross-shard lookahead must be positive");
    WLANPS_REQUIRE_MSG(mailbox_capacity >= 1, "mailbox capacity must be positive");
}

ShardedSimulator::ShardedSimulator(ShardedConfig config) : config_(config) {
    config_.validate();
    shards_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
        auto sh = std::make_unique<Shard>();
        sh->inbox.reserve(config_.mailbox_capacity);
        shards_.push_back(std::move(sh));
    }
    // More workers than shards would never all have work.
    worker_count_ = std::min(config_.threads, config_.shards);
}

ShardedSimulator::~ShardedSimulator() {
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lock(pool_mutex_);
            shutdown_ = true;
        }
        start_cv_.notify_all();
        for (std::thread& t : workers_) t.join();
    }
}

Simulator& ShardedSimulator::shard(std::size_t i) {
    WLANPS_REQUIRE_MSG(i < shards_.size(), "shard index out of range");
    return shards_[i]->sim;
}

void ShardedSimulator::post_cross(std::size_t from, std::size_t to, Time when,
                                  InlineCallback callback) {
    WLANPS_REQUIRE_MSG(from < shards_.size() && to < shards_.size(), "shard index out of range");
    WLANPS_REQUIRE_MSG(static_cast<bool>(callback), "null callback");
    Shard& src = *shards_[from];
    if (from == to) {
        // Same shard: an ordinary local event, no lookahead constraint.
        src.sim.post_at(when, std::move(callback));
        return;
    }
    WLANPS_REQUIRE_MSG(when >= src.sim.now() + config_.lookahead,
                       "cross-shard event inside the lookahead horizon — the conservative "
                       "synchronizer cannot deliver it in time (raise the event delay or "
                       "lower ShardedConfig::lookahead)");
    Shard& dst = *shards_[to];
    {
        std::lock_guard<std::mutex> lock(dst.inbox_mutex);
        WLANPS_REQUIRE_MSG(dst.inbox.size() < config_.mailbox_capacity,
                           "cross-shard mailbox overflow — raise ShardedConfig::mailbox_capacity");
        dst.inbox.push_back(CrossEvent{when, static_cast<std::uint32_t>(from),
                                       src.send_seq++, std::move(callback)});
        if (when < dst.inbox_min) dst.inbox_min = when;
        if (dst.inbox.size() > dst.stats.mailbox_peak) dst.stats.mailbox_peak = dst.inbox.size();
    }
    // Sender-side stats are only ever written by the shard's owning thread.
    ++src.stats.cross_sent;
}

void ShardedSimulator::flush_inbox(Shard& sh) {
    std::vector<CrossEvent> batch;
    {
        std::lock_guard<std::mutex> lock(sh.inbox_mutex);
        if (sh.inbox.empty()) return;
        batch.swap(sh.inbox);
        sh.inbox.reserve(config_.mailbox_capacity);
        sh.inbox_min = Time::max();
    }
    // Deterministic merge: arrival order into the local queue — and hence
    // the (time, seq) FIFO tie-break among simultaneous events — depends
    // only on (when, src, seq), never on which thread sent first.
    std::sort(batch.begin(), batch.end(), &cross_less);
    const Time local_now = sh.sim.now();
    for (CrossEvent& ev : batch) {
        WLANPS_REQUIRE_MSG(ev.when >= local_now,
                           "barrier invariant broken: late cross-shard event");
        sh.sim.post_at(ev.when, std::move(ev.callback));
        ++sh.stats.cross_received;
    }
}

Time ShardedSimulator::next_work_time() {
    Time earliest = Time::max();
    for (auto& sh : shards_) {
        earliest = std::min(earliest, sh->sim.next_event_time());
        std::lock_guard<std::mutex> lock(sh->inbox_mutex);
        earliest = std::min(earliest, sh->inbox_min);
    }
    return earliest;
}

void ShardedSimulator::run_one_shard(Shard& sh, Time quantum_end) {
#if defined(WLANPS_OBS_ENABLED)
    if (telemetry_ != nullptr) {
        const std::uint64_t events_before = sh.sim.events_dispatched();
        if (time_this_quantum_) {
            const std::uint64_t t0 = steady_ns();
            sh.sim.run_until(quantum_end);
            sh.q_dispatch_ns = steady_ns() - t0;
        } else {
            // Untimed quantum (timing stride): event counts stay exact,
            // the clock stays cold.
            sh.sim.run_until(quantum_end);
            sh.q_dispatch_ns = 0;
        }
        sh.q_events = sh.sim.events_dispatched() - events_before;
        return;
    }
#endif
    sh.sim.run_until(quantum_end);
}

void ShardedSimulator::run_shard_span(std::size_t worker, Time quantum_end) {
    for (std::size_t i = worker; i < shards_.size(); i += worker_count_) {
        run_one_shard(*shards_[i], quantum_end);
    }
}

void ShardedSimulator::record_quantum_telemetry() {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard& sh = *shards_[i];
        telemetry_->record_shard(i, sh.q_events, sh.q_dispatch_ns, sh.q_flush_ns,
                                 sh.stats.cross_received - sh.q_cross_base);
    }
    telemetry_->commit_quantum();
}

void ShardedSimulator::run_quantum(Time quantum_end) {
    // Phase 1 — flush every mailbox on the coordinating thread, BEFORE any
    // shard advances.  If flushing were folded into each shard's run (e.g.
    // flush-then-run per shard in index order), a message posted by an
    // already-run shard could reach a not-yet-run shard one quantum early,
    // making delivery timing depend on shard visit order — which differs
    // between inline and parallel execution.  A separate flush phase sees
    // exactly the messages of completed quanta, in every mode.
#if defined(WLANPS_OBS_ENABLED)
    if (telemetry_ != nullptr) {
        // Timing stride: two steady_clock reads per shard per quantum are
        // the dominant telemetry cost, so only every stride-th quantum is
        // timed (ShardTelemetry scales the samples back up).  Workers read
        // time_this_quantum_ after the generation handoff under
        // pool_mutex_, so the write here happens-before their use.
        time_this_quantum_ = quantum_seq_ % telemetry_->timing_stride() == 0;
        ++quantum_seq_;
        for (auto& sh : shards_) {
            sh->q_cross_base = sh->stats.cross_received;
            if (time_this_quantum_) {
                const std::uint64_t t0 = steady_ns();
                flush_inbox(*sh);
                sh->q_flush_ns = steady_ns() - t0;
            } else {
                flush_inbox(*sh);
                sh->q_flush_ns = 0;
            }
        }
    } else {
        for (auto& sh : shards_) flush_inbox(*sh);
    }
#else
    for (auto& sh : shards_) flush_inbox(*sh);
#endif
    if (worker_count_ == 0) {
        // Inline reference execution: shards in index order on this thread.
        for (auto& sh : shards_) run_one_shard(*sh, quantum_end);
#if defined(WLANPS_OBS_ENABLED)
        if (telemetry_ != nullptr) record_quantum_telemetry();
#endif
        return;
    }
    {
        std::lock_guard<std::mutex> lock(pool_mutex_);
        quantum_target_ = quantum_end;
        remaining_.store(worker_count_, std::memory_order_relaxed);
        ++generation_;
    }
    start_cv_.notify_all();
    std::unique_lock<std::mutex> lock(pool_mutex_);
    done_cv_.wait(lock, [this] { return remaining_.load(std::memory_order_acquire) == 0; });
    lock.unlock();
    const std::uint64_t all_done = steady_ns();
    for (std::size_t w = 0; w < worker_count_; ++w) {
        barrier_wait_ns_ += all_done - std::min(worker_finish_ns_[w], all_done);
    }
#if defined(WLANPS_OBS_ENABLED)
    // The workers' q_* staging writes happen-before this read via the
    // acq_rel countdown the done_cv_ wait acquired.
    if (telemetry_ != nullptr) record_quantum_telemetry();
#endif
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock2(error_mutex_);
        error = std::exchange(first_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
}

void ShardedSimulator::start_workers() {
    worker_finish_ns_.assign(worker_count_, 0);
    workers_.reserve(worker_count_);
    for (std::size_t w = 0; w < worker_count_; ++w) {
        workers_.emplace_back([this, w] { worker_loop(w); });
    }
}

void ShardedSimulator::worker_loop(std::size_t worker) {
    std::uint64_t seen_generation = 0;
    for (;;) {
        Time quantum_end;
        {
            std::unique_lock<std::mutex> lock(pool_mutex_);
            start_cv_.wait(lock,
                           [&] { return shutdown_ || generation_ != seen_generation; });
            if (shutdown_) return;
            seen_generation = generation_;
            quantum_end = quantum_target_;
        }
        try {
            run_shard_span(worker, quantum_end);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        worker_finish_ns_[worker] = steady_ns();
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(pool_mutex_);
            done_cv_.notify_one();
        }
    }
}

void ShardedSimulator::run_until(Time horizon) {
    WLANPS_REQUIRE_MSG(horizon >= now_, "horizon in the past");
    if (worker_count_ > 0 && workers_.empty()) start_workers();
    while (now_ < horizon) {
        // Idle jump: when every shard's next event (and every mailbox
        // entry) lies beyond the next boundary, start the quantum at the
        // earliest pending work instead of crawling empty windows.  All
        // shards agree on this minimum, so the jump is deterministic.
        Time start = now_;
        const Time frontier = next_work_time();
        if (frontier > start) {
            start = std::min(frontier, horizon);
            ++idle_jumps_;
        }
        Time quantum_end = start + config_.lookahead;
        if (quantum_end > horizon || quantum_end < start) quantum_end = horizon;
        run_quantum(quantum_end);
        now_ = quantum_end;
        ++quanta_;
    }
}

ShardStats ShardedSimulator::stats(std::size_t i) const {
    WLANPS_REQUIRE_MSG(i < shards_.size(), "shard index out of range");
    ShardStats s = shards_[i]->stats;
    s.events_dispatched = shards_[i]->sim.events_dispatched();
    return s;
}

void ShardedSimulator::publish_metrics(obs::MetricsRegistry& registry) const {
    obs::Histogram& dispatched = registry.histogram("sim.shard.dispatched");
    obs::Gauge& depth_peak = registry.gauge("sim.shard.mailbox_depth_peak");
    obs::Gauge& depth_now = registry.gauge("sim.shard.mailbox_depth");
    std::uint64_t cross = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard& sh = *shards_[i];
        dispatched.record(static_cast<double>(sh.sim.events_dispatched()));
        depth_peak.set(static_cast<double>(sh.stats.mailbox_peak));
        depth_now.set(static_cast<double>(sh.inbox.size()));
        cross += sh.stats.cross_sent;
    }
    registry.counter("sim.shard.cross_events").add(cross);
    registry.counter("sim.shard.quanta").add(quanta_);
    registry.counter("sim.shard.idle_jumps").add(idle_jumps_);
    if (telemetry_ != nullptr) telemetry_->publish(registry);
}

void ShardedSimulator::fill_health(obs::HealthReport& report) const {
    report.shards = shards_.size();
    report.workers = worker_count_;
    report.quanta = quanta_;
    report.idle_jumps = idle_jumps_;
    report.events = 0;
    report.barrier_wait_ns = barrier_wait_ns_;
    report.per_shard.clear();
    report.per_shard.reserve(shards_.size());
    std::uint64_t max_shard_events = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard& sh = *shards_[i];
        obs::ShardHealth h;
        h.shard = static_cast<std::uint32_t>(i);
        h.events = sh.sim.events_dispatched();
        h.cross_sent = sh.stats.cross_sent;
        h.cross_received = sh.stats.cross_received;
        h.mailbox_peak = sh.stats.mailbox_peak;
        report.events += h.events;
        max_shard_events = std::max(max_shard_events, h.events);
        report.per_shard.push_back(h);
    }

    const obs::ShardTelemetry* tel = telemetry_;
    if (tel != nullptr && tel->quanta() > 0) {
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            const obs::ShardTelemetry::Lane& lane = tel->lane(i);
            report.per_shard[i].busy_quanta = lane.busy_quanta;
            report.per_shard[i].max_events_quantum = lane.max_events_quantum;
            report.per_shard[i].dispatch_ns = lane.dispatch_ns;
            report.per_shard[i].flush_ns = lane.flush_ns;
        }
        report.imbalance_index = tel->imbalance_index();
        report.skew_count = tel->skew().count();
        report.skew_mean = tel->skew().mean();
        report.skew_max = tel->skew().max();
        report.dispatch_ns = tel->total_dispatch_ns();
        report.flush_ns = tel->total_flush_ns();
        report.imbalance_index_ns = tel->imbalance_index_ns();
    } else {
        // No per-quantum attribution (plain build, or telemetry never
        // attached): the whole-run max/mean across shards still flags a
        // statically imbalanced decomposition.
        report.imbalance_index =
            report.events == 0
                ? 0.0
                : static_cast<double>(max_shard_events) /
                      (static_cast<double>(report.events) /
                       static_cast<double>(shards_.size()));
    }
}

}  // namespace wlanps::sim
