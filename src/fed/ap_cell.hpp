#pragma once
/// \file ap_cell.hpp
/// One AP cell of a hotspot federation.
///
/// A cell is the shard-local owner of its associated clients' slab rows:
/// it admits arrivals and roamers under the configured admission policy,
/// schedules their periodic bursts through a serial service queue (one
/// radio), models backhaul contention (effective goodput =
/// min(radio, backhaul / associated)), accrues closed-form WNIC energy,
/// and initiates roams.  Every event it posts is shard-local; the only
/// cross-shard traffic is the handoff message a roam sends through
/// Federation::post_handoff.
///
/// Determinism: all RNG draws come from the cell's private forked stream,
/// in shard-local event order; stale fire-and-forget events (burst/roam
/// timers of a client that left) drop themselves via the slab's epoch
/// column.

#include <cstdint>
#include <deque>
#include <vector>

#include "fed/arrivals.hpp"
#include "fed/client_slab.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wlanps::fed {

class Federation;

class ApCell {
public:
    ApCell(Federation& fed, std::uint16_t ap, sim::Random rng);

    /// Plan this cell's arrival schedule (deterministic, at build time).
    /// Ids are assigned densely starting at \p first_id; returns the
    /// number of planned arrivals (bounded by \p max_arrivals; the
    /// overflow is reported via truncated_arrivals()).
    std::size_t plan_arrivals(std::uint32_t first_id, std::size_t max_arrivals);
    [[nodiscard]] std::uint64_t truncated_arrivals() const { return truncated_; }

    /// Record one initial-population client (round-robin assigned by the
    /// Federation; \p join_at is zero or a late-join fault time).
    void add_initial(std::uint32_t id, Time join_at);

    /// Post the cell's kick-off events (initial admissions, first planned
    /// arrival).  Owning thread, before run_until.
    void start();

    // --- fault surface (shard-local events post these) --------------------
    /// Per-client fault application; returns false (and counts a miss)
    /// when the target's row is not owned by this cell anymore.
    bool lockup_one(std::uint32_t id, Time until);
    bool crash_one(std::uint32_t id, Time revive_after);
    bool leave_one(std::uint32_t id);
    void count_fault(bool applied);
    /// Probability gate for a planned fault occurrence; draws from the
    /// cell's dedicated fault stream so fault plans never perturb the
    /// workload's RNG sequence.
    [[nodiscard]] bool fault_roll(double probability);

    /// Handoff delivery (invoked on this cell's shard by post_handoff).
    void handoff_arrive(std::uint32_t id);

    /// Owning-thread teardown: resolve queued and in-service bursts as
    /// shed.  The federation then accrues every resident row's energy to
    /// the horizon in one slab pass.
    void teardown();

    // --- cell counters (read at teardown) ----------------------------------
    [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
    [[nodiscard]] std::uint64_t departures() const { return departures_; }
    [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
    [[nodiscard]] std::uint64_t deferred() const { return deferred_; }
    [[nodiscard]] std::uint64_t degraded() const { return degraded_; }
    [[nodiscard]] std::uint64_t faults_injected() const { return faults_injected_; }
    [[nodiscard]] std::uint64_t faults_missed() const { return faults_missed_; }
    [[nodiscard]] std::uint64_t peak_association() const { return peak_assoc_; }
    [[nodiscard]] int associated() const { return assoc_count_; }

private:
    struct QueueEntry {
        std::uint32_t id = 0;
        std::uint16_t epoch = 0;
        std::uint64_t bits = 0;
    };

    [[nodiscard]] sim::Simulator& sim();
    [[nodiscard]] ClientSlab& slab();

    /// Does this cell currently own row \p id (for fault targeting)?
    [[nodiscard]] bool owns(std::uint32_t id) const;

    // Arrival events.
    void join_due(std::uint32_t id);
    void arrival_due();
    void open_session(std::uint32_t id);

    // Admission of a client standing at this cell (fresh arrival, retry,
    // or roamer; \p via_handoff switches the failure accounting).
    void admit(std::uint32_t id, bool via_handoff);
    void start_session_events(std::uint32_t id);
    void schedule_burst(std::uint32_t id, Time at);
    void schedule_roam(std::uint32_t id);
    void burst_due(std::uint32_t id, std::uint16_t epoch);
    void roam_due(std::uint32_t id, std::uint16_t epoch);
    void retry_due(std::uint32_t id, std::uint16_t epoch);
    void revive_due(std::uint32_t id, std::uint16_t epoch);
    void pump_service();
    void service_done(std::uint32_t id, std::uint16_t epoch, std::uint64_t bits,
                      double service_s);
    /// Post-burst / timer-driven exits: departure or roam, honoring the
    /// deferral flags.  Returns true when the client left the cell.
    bool maybe_exit(std::uint32_t id);
    void depart(std::uint32_t id);
    void begin_roam(std::uint32_t id);

    // Energy accrual (closed form, per row).
    void accrue(std::uint32_t id, Time now);
    [[nodiscard]] double resident_draw_w(std::uint32_t id) const;
    void charge_burst(std::uint32_t id, double service_s);

    [[nodiscard]] Time now();
    [[nodiscard]] std::uint64_t burst_bits(std::uint32_t id) const;
    [[nodiscard]] double effective_goodput_bps() const;

    Federation& fed_;
    std::uint16_t ap_;
    std::size_t shard_;
    sim::Random rng_;
    sim::Random fault_rng_;
    std::uint64_t arrival_seed_;  ///< plan_arrivals' stream, seeded only there
    Time period_;  ///< burst cadence: time to stream one target burst

    // Planned (build-time) arrival schedule: ids first_id_..first_id_+n-1
    // arrive at planned_at_[k].
    std::uint32_t first_id_ = 0;
    std::vector<Time> planned_at_;
    std::size_t next_planned_ = 0;
    std::uint64_t truncated_ = 0;

    // Initial population (build-time).
    std::vector<std::pair<std::uint32_t, Time>> initial_;

    // Service queue: one radio, FIFO.
    std::deque<QueueEntry> queue_;
    bool serving_ = false;
    QueueEntry in_service_;  ///< shed at teardown if still unresolved

    int assoc_count_ = 0;
    std::uint64_t peak_assoc_ = 0;
    std::uint64_t arrivals_ = 0;
    std::uint64_t departures_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t deferred_ = 0;
    std::uint64_t degraded_ = 0;
    std::uint64_t faults_injected_ = 0;
    std::uint64_t faults_missed_ = 0;

    friend class Federation;
};

}  // namespace wlanps::fed
