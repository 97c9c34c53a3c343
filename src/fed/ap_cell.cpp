#include "fed/ap_cell.hpp"

#include <algorithm>

#include "core/scenario_spec.hpp"
#include "fed/federation.hpp"
#include "sim/assert.hpp"

namespace wlanps::fed {

namespace {
// Child-stream ids of the cell's root fork: keep the arrival plan, the
// workload draws, and the fault rolls on decorrelated streams so a fault
// plan (or a different arrival rate) never perturbs the other sequences.
constexpr std::uint64_t kArrivalStream = 1;
constexpr std::uint64_t kWorkloadStream = 2;
constexpr std::uint64_t kFaultStream = 3;
}  // namespace

ApCell::ApCell(Federation& fed, std::uint16_t ap, sim::Random rng)
    : fed_(fed),
      ap_(ap),
      shard_(fed.shard_of_ap(ap)),
      rng_(rng.fork(kWorkloadStream)),
      fault_rng_(rng.fork(kFaultStream)),
      arrival_seed_(rng.fork_seed(kArrivalStream)),
      period_(fed.config().stream_rate.transmit_time(fed.config().target_burst)) {
    WLANPS_REQUIRE_MSG(!period_.is_zero(), "federation burst period must be positive");
}

sim::Simulator& ApCell::sim() { return fed_.kernel().shard(shard_); }
ClientSlab& ApCell::slab() { return fed_.slab(); }
Time ApCell::now() { return sim().now(); }

std::size_t ApCell::plan_arrivals(std::uint32_t first_id, std::size_t max_arrivals) {
    first_id_ = first_id;
    const auto& cfg = fed_.config();
    ArrivalProcess arrivals(cfg.base_arrival_hz, cfg.flash_arrival_hz, cfg.flash_start,
                            cfg.flash_start + cfg.flash_duration, sim::Random(arrival_seed_));
    const Time end = fed_.stream().duration;
    Time t = Time::zero();
    for (;;) {
        t = arrivals.next_after(t);
        if (t >= end) break;
        if (planned_at_.size() >= max_arrivals) {
            ++truncated_;
            continue;
        }
        planned_at_.push_back(t);
    }
    return planned_at_.size();
}

void ApCell::add_initial(std::uint32_t id, Time join_at) {
    initial_.emplace_back(id, join_at);
}

void ApCell::start() {
    auto& s = sim();
    for (const auto& [id, join_at] : initial_) {
        s.post_at(join_at, [this, cid = id] { join_due(cid); });
    }
    if (!planned_at_.empty()) {
        s.post_at(planned_at_[0], [this] { arrival_due(); });
    }
}

void ApCell::join_due(std::uint32_t id) {
    // A pre-arrival silent_leave cancels the join.
    if (slab().state_of(id) != ClientState::pending) return;
    open_session(id);
    ++arrivals_;
    admit(id, /*via_handoff=*/false);
}

void ApCell::arrival_due() {
    const auto k = next_planned_++;
    if (next_planned_ < planned_at_.size()) {
        sim().post_at(planned_at_[next_planned_], [this] { arrival_due(); });
    }
    const std::uint32_t id = first_id_ + static_cast<std::uint32_t>(k);
    if (slab().state_of(id) != ClientState::pending) return;
    open_session(id);
    ++arrivals_;
    admit(id, /*via_handoff=*/false);
}

void ApCell::open_session(std::uint32_t id) {
    auto& sl = slab();
    const Time t = now();
    sl.arrival_at_ns[id] = t.ns();
    sl.last_accrue_ns[id] = t.ns();
    sl.departure_at_ns[id] =
        (t + rng_.exponential_time(fed_.config().mean_session)).ns();
}

void ApCell::admit(std::uint32_t id, bool via_handoff) {
    auto& sl = slab();
    const auto& cfg = fed_.config();
    const Time t = now();
    if (t.ns() >= sl.departure_at_ns[id]) {
        // Session expired while deferred / in flight.
        sl.current_ap[id].store(ap_, std::memory_order_relaxed);
        depart(id);
        return;
    }
    if (assoc_count_ >= cfg.capacity_per_ap) {
        switch (cfg.admission) {
            case core::AdmissionPolicy::reject:
                sl.current_ap[id].store(ap_, std::memory_order_relaxed);
                if (via_handoff) {
                    ++sl.handoff_failures[id];
                } else {
                    ++rejected_;
                }
                depart(id);
                return;
            case core::AdmissionPolicy::defer: {
                sl.current_ap[id].store(ap_, std::memory_order_relaxed);
                if (sl.state_of(id) != ClientState::deferred) {
                    ++deferred_;
                    sl.set_state(id, ClientState::deferred);
                }
                const std::uint16_t ep = sl.epoch_of(id);
                sim().post_at(t + cfg.defer_retry,
                              [this, id, ep] { retry_due(id, ep); });
                return;
            }
            case core::AdmissionPolicy::degrade:
                // Admit over capacity, at a reduced burst size.
                sl.flags[id] |= client_flags::kDegraded;
                ++degraded_;
                break;
        }
    }
    accrue(id, t);  // close out any deferred/roaming idle stretch
    sl.current_ap[id].store(ap_, std::memory_order_relaxed);
    sl.set_state(id, ClientState::associated);  // release: publishes current_ap
    ++assoc_count_;
    peak_assoc_ = std::max(peak_assoc_, static_cast<std::uint64_t>(assoc_count_));
    if (via_handoff) ++sl.roams[id];
    start_session_events(id);
}

void ApCell::start_session_events(std::uint32_t id) {
    // Random phase keeps the cell's bursts from synchronizing.
    const Time first = now() + Time::from_seconds(rng_.uniform(0.0, period_.to_seconds()));
    schedule_burst(id, first);
    if (fed_.config().roaming && fed_.ap_count() >= 2) schedule_roam(id);
}

void ApCell::schedule_burst(std::uint32_t id, Time at) {
    const std::uint16_t ep = slab().epoch_of(id);
    sim().post_at(at, [this, id, ep] { burst_due(id, ep); });
}

void ApCell::schedule_roam(std::uint32_t id) {
    const std::uint16_t ep = slab().epoch_of(id);
    const Time at = now() + rng_.exponential_time(fed_.config().mean_dwell);
    sim().post_at(at, [this, id, ep] { roam_due(id, ep); });
}

void ApCell::burst_due(std::uint32_t id, std::uint16_t epoch) {
    auto& sl = slab();
    if (sl.epoch_of(id) != epoch || sl.state_of(id) != ClientState::associated) return;
    if (now().ns() >= sl.departure_at_ns[id]) {
        depart(id);
        return;
    }
    ++sl.bursts_admitted[id];
    sl.flags[id] |= client_flags::kBurstQueued;
    queue_.push_back({id, epoch, burst_bits(id)});
    pump_service();
}

void ApCell::roam_due(std::uint32_t id, std::uint16_t epoch) {
    auto& sl = slab();
    if (sl.epoch_of(id) != epoch || sl.state_of(id) != ClientState::associated) return;
    if (sl.flags[id] & client_flags::kBurstQueued) {
        // Finish (or shed) the in-flight burst first.
        sl.flags[id] |= client_flags::kRoamPending;
        return;
    }
    if (now().ns() >= sl.departure_at_ns[id]) {
        depart(id);
        return;
    }
    begin_roam(id);
}

void ApCell::retry_due(std::uint32_t id, std::uint16_t epoch) {
    auto& sl = slab();
    if (sl.epoch_of(id) != epoch || sl.state_of(id) != ClientState::deferred) return;
    admit(id, /*via_handoff=*/false);
}

void ApCell::revive_due(std::uint32_t id, std::uint16_t epoch) {
    auto& sl = slab();
    if (sl.epoch_of(id) != epoch || sl.state_of(id) != ClientState::crashed) return;
    if (now().ns() >= sl.departure_at_ns[id]) {
        depart(id);
        return;
    }
    ++arrivals_;  // a revival re-registers like a fresh arrival
    admit(id, /*via_handoff=*/false);
}

void ApCell::pump_service() {
    if (serving_) return;
    auto& sl = slab();
    while (!queue_.empty()) {
        const QueueEntry e = queue_.front();
        queue_.pop_front();
        if (sl.epoch_of(e.id) != e.epoch) {
            // Crashed/left while queued: admitted, never served.
            ++sl.bursts_shed[e.id];
            continue;
        }
        const Time t = now();
        if (t.ns() < sl.lockup_until_ns[e.id]) {
            // Radio wedged: this burst fails; retry next period.
            ++sl.bursts_shed[e.id];
            sl.flags[e.id] &= ~client_flags::kBurstQueued;
            if (!maybe_exit(e.id)) schedule_burst(e.id, t + period_);
            continue;
        }
        const double service_s =
            static_cast<double>(e.bits) / effective_goodput_bps();
        serving_ = true;
        in_service_ = e;
        sim().post_at(t + Time::from_seconds(service_s),
                      [this, id = e.id, ep = e.epoch, bits = e.bits, service_s] {
                          service_done(id, ep, bits, service_s);
                      });
        return;
    }
}

void ApCell::service_done(std::uint32_t id, std::uint16_t epoch, std::uint64_t bits,
                          double service_s) {
    serving_ = false;
    auto& sl = slab();
    if (sl.epoch_of(id) == epoch) {
        sl.delivered_bits[id] += bits;
        ++sl.bursts_completed[id];
        sl.flags[id] &= ~client_flags::kBurstQueued;
        accrue(id, now());
        charge_burst(id, service_s);
        if (!maybe_exit(id)) schedule_burst(id, now() + period_);
    } else {
        // Crashed mid-transfer: the delivery failed.
        ++sl.bursts_shed[id];
    }
    pump_service();
}

bool ApCell::maybe_exit(std::uint32_t id) {
    auto& sl = slab();
    if ((sl.flags[id] & client_flags::kDepartPending) ||
        now().ns() >= sl.departure_at_ns[id]) {
        sl.flags[id] &= ~(client_flags::kDepartPending | client_flags::kRoamPending);
        depart(id);
        return true;
    }
    if (sl.flags[id] & client_flags::kRoamPending) {
        sl.flags[id] &= ~client_flags::kRoamPending;
        begin_roam(id);
        return true;
    }
    return false;
}

void ApCell::depart(std::uint32_t id) {
    auto& sl = slab();
    accrue(id, now());
    sl.bump_epoch(id);
    if (sl.state_of(id) == ClientState::associated) --assoc_count_;
    sl.set_state(id, ClientState::departed);
    ++departures_;
}

void ApCell::begin_roam(std::uint32_t id) {
    auto& sl = slab();
    accrue(id, now());
    sl.bump_epoch(id);
    --assoc_count_;
    sl.set_state(id, ClientState::roaming);
    const std::uint32_t aps = fed_.ap_count();
    auto pick = static_cast<std::uint32_t>(rng_.uniform_int(0, aps - 2));
    if (pick >= ap_) ++pick;  // uniform over the *other* cells
    fed_.post_handoff(ap_, pick, id);
}

void ApCell::handoff_arrive(std::uint32_t id) {
    // Row ownership arrived with the mailbox message.
    admit(id, /*via_handoff=*/true);
}

// --- faults ---------------------------------------------------------------

bool ApCell::fault_roll(double probability) {
    if (probability >= 1.0) return true;
    return fault_rng_.chance(probability);
}

void ApCell::count_fault(bool applied) {
    if (applied) {
        ++faults_injected_;
    } else {
        ++faults_missed_;
    }
}

bool ApCell::owns(std::uint32_t id) const {
    const ClientSlab& sl = fed_.slab();
    if (sl.current_ap[id].load(std::memory_order_relaxed) != ap_) return false;
    switch (sl.state_of(id)) {
        case ClientState::pending:
        case ClientState::associated:
        case ClientState::deferred:
        case ClientState::crashed:
            return true;
        default:
            return false;
    }
}

bool ApCell::lockup_one(std::uint32_t id, Time until) {
    if (!owns(id)) return false;
    auto& sl = slab();
    sl.lockup_until_ns[id] = std::max(sl.lockup_until_ns[id], until.ns());
    return true;
}

bool ApCell::crash_one(std::uint32_t id, Time revive_after) {
    if (!owns(id)) return false;
    auto& sl = slab();
    const ClientState st = sl.state_of(id);
    if (st != ClientState::associated && st != ClientState::deferred) return false;
    const Time t = now();
    accrue(id, t);
    sl.bump_epoch(id);  // queued / in-flight bursts shed as stale
    if (st == ClientState::associated) --assoc_count_;
    sl.flags[id] &= ~(client_flags::kBurstQueued | client_flags::kRoamPending |
                      client_flags::kDepartPending);
    sl.set_state(id, ClientState::crashed);
    if (!revive_after.is_zero()) {
        const std::uint16_t ep = sl.epoch_of(id);
        sim().post_at(t + revive_after, [this, id, ep] { revive_due(id, ep); });
    }
    return true;
}

bool ApCell::leave_one(std::uint32_t id) {
    if (!owns(id)) return false;
    auto& sl = slab();
    const ClientState st = sl.state_of(id);
    if (st != ClientState::pending && st != ClientState::associated &&
        st != ClientState::deferred) {
        return false;
    }
    sl.flags[id] &= ~(client_flags::kBurstQueued | client_flags::kRoamPending |
                      client_flags::kDepartPending);
    depart(id);
    return true;
}

// --- teardown / energy ----------------------------------------------------

void ApCell::teardown() {
    auto& sl = slab();
    if (serving_) {
        // Admitted, in service at the horizon, never resolved.
        ++sl.bursts_shed[in_service_.id];
        serving_ = false;
    }
    for (const QueueEntry& e : queue_) ++sl.bursts_shed[e.id];
    queue_.clear();
}

double ApCell::resident_draw_w(std::uint32_t id) const {
    const ClientSlab& sl = fed_.slab();
    const auto& nic = fed_.stream().wlan_nic;
    switch (sl.state_of(id)) {
        case ClientState::associated:
            return nic.doze.watts();  // PSM doze between scheduled bursts
        case ClientState::deferred:
        case ClientState::roaming:
            return nic.idle.watts();  // awake, scanning / waiting to associate
        default:
            return 0.0;  // pending / crashed / departed draw nothing
    }
}

void ApCell::accrue(std::uint32_t id, Time now_t) {
    auto& sl = slab();
    const std::int64_t dt_ns = now_t.ns() - sl.last_accrue_ns[id];
    if (dt_ns <= 0) return;
    const double joules = resident_draw_w(id) * (static_cast<double>(dt_ns) * 1e-9);
    sl.energy_j[id] += joules;
    sl.last_accrue_ns[id] = now_t.ns();
    if (double* causes = fed_.sampled_causes(id)) causes[0] += joules;
}

void ApCell::charge_burst(std::uint32_t id, double service_s) {
    auto& sl = slab();
    const auto& nic = fed_.stream().wlan_nic;
    const double wake_j = nic.resume_draw.watts() * nic.resume_latency.to_seconds();
    // accrue() already charged the doze baseline across the service
    // window, so the burst adds only the rx increment.
    const double rx_j = (nic.rx.watts() - nic.doze.watts()) * service_s;
    sl.energy_j[id] += wake_j + rx_j;
    if (double* causes = fed_.sampled_causes(id)) {
        causes[1] += wake_j;
        causes[2] += rx_j;
    }
}

std::uint64_t ApCell::burst_bits(std::uint32_t id) const {
    const ClientSlab& sl = fed_.slab();
    const auto& cfg = fed_.config();
    auto bits = static_cast<std::uint64_t>(cfg.target_burst.bits());
    if (sl.flags[id] & client_flags::kDegraded) {
        bits = static_cast<std::uint64_t>(static_cast<double>(bits) * cfg.degrade_factor);
        if (bits == 0) bits = 1;
    }
    return bits;
}

double ApCell::effective_goodput_bps() const {
    const auto& cfg = fed_.config();
    const double radio = static_cast<double>(cfg.radio_goodput.bps());
    const double backhaul = static_cast<double>(cfg.backhaul_rate.bps()) /
                            static_cast<double>(std::max(assoc_count_, 1));
    return std::max(std::min(radio, backhaul), 1.0);
}

}  // namespace wlanps::fed
