#pragma once
/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// A Simulator owns a time-ordered event queue.  Components schedule
/// callbacks at absolute times or after delays; run() dispatches them in
/// (time, insertion-order) order, so simultaneous events execute FIFO and
/// every run with the same seed is bit-reproducible.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/assert.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

#if defined(WLANPS_OBS_ENABLED)
#include "obs/kernel_profile.hpp"
#else
namespace wlanps::obs {
class KernelProfile;  // attach_profile() compiles in every build
}
#endif

namespace wlanps::sim {

class Simulator;
class PeriodicEvent;

/// Handle to a scheduled event; used to cancel it before it fires.
class EventHandle {
public:
    EventHandle() = default;

    /// True if the event has neither fired nor been cancelled.
    [[nodiscard]] bool pending() const;
    /// Cancel the event.  No-op if it already fired or was cancelled.
    void cancel();

private:
    friend class Simulator;
    struct State {
        InlineCallback callback;
        Simulator* owner = nullptr;  // for tombstone accounting on cancel
        bool cancelled = false;
    };
    explicit EventHandle(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
};

/// The simulation kernel.  Not copyable; components hold references to it.
///
/// Storage: event nodes come from an internal slab allocator (fixed-size
/// chunks, free-list recycling) and callbacks live in-place in the node
/// (InlineCallback, 64-byte buffer), so steady-state scheduling performs
/// no heap allocation at all.  Two scheduling families exist:
///   * post_at / post_in    — fire-and-forget, no handle, fastest path;
///   * schedule_at / schedule_in — return an EventHandle for cancellation
///     (allocates a small shared cancellation state, as before).
///
/// Ordering: the queue is a two-level calendar queue — a wheel of
/// power-of-two buckets of power-of-two width covering the near future,
/// plus a binary-heap overflow ladder for everything beyond it.  The wheel
/// starts at 256 × 4096 ns (~1 ms) and sizes itself from its own queue:
/// when most posts since the last resize went to the overflow, the bucket
/// count and width are re-derived from the queued events (DESIGN.md §7).
/// Buckets stay sorted by (time, seq); ties at equal times break on a
/// global insertion sequence number, so dispatch order is exactly the
/// (time, seq) FIFO order of a plain binary heap — same events, same
/// order, same metrics to the last bit, at every geometry.
class Simulator {
public:
    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Current simulated time.
    [[nodiscard]] Time now() const { return now_; }

    /// Schedule \p callback at absolute time \p when (must be >= now()).
    EventHandle schedule_at(Time when, InlineCallback callback);

    /// Schedule \p callback \p delay after now() (delay must be >= 0).
    EventHandle schedule_in(Time delay, InlineCallback callback);

    /// Fire-and-forget variant of schedule_at: no EventHandle, no shared
    /// cancellation state.  Use when the event is never cancelled.
    void post_at(Time when, InlineCallback callback);

    /// Fire-and-forget variant of schedule_in.
    void post_in(Time delay, InlineCallback callback);

    /// Run until the queue is empty or stop() is called.
    void run();

    /// Run until simulated time reaches \p horizon (events at exactly
    /// \p horizon still execute), the queue empties, or stop() is called.
    /// Afterwards now() == horizon unless stopped earlier.
    void run_until(Time horizon);

    /// Execute the single next event.  Returns false if the queue is empty.
    bool step();

    /// Ask the running loop to return after the current event.
    void stop() { stop_requested_ = true; }

    /// Number of events dispatched so far (cancelled events excluded).
    [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

    /// Number of entries currently queued, *including* cancelled tombstones
    /// that have not been reaped yet.  Use pending_events() to ask "how
    /// many events will still fire".
    [[nodiscard]] std::size_t queue_size() const { return size_; }

    /// Number of queued events that are still live (cancelled tombstones
    /// excluded) — the count that reaches zero exactly when run() would
    /// dispatch nothing more.
    [[nodiscard]] std::size_t pending_events() const {
        return size_ - static_cast<std::size_t>(cancelled_pending_);
    }

    /// Earliest queued timestamp, or Time::max() when the queue is empty.
    /// Cancelled tombstones count, so this is a conservative lower bound
    /// on when the next live event fires — exactly what a conservative
    /// parallel synchronizer (sim/sharded.hpp) needs for idle-quantum
    /// jumps.  Non-const: peeking may sort a bucket or migrate overflow
    /// entries, which is dispatch-order neutral.
    [[nodiscard]] Time next_event_time() {
        if (size_ == 0) return Time::max();
        return find_min()->when;
    }

    /// Wheel geometry, read-only: the bucket count and the bucket width
    /// (both powers of two; the kernel re-derives them as it runs).
    [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
    [[nodiscard]] Time bucket_width() const {
        return Time::from_ns(std::int64_t{1} << width_shift_);
    }

    /// Attach a kernel profiling sink (obs/kernel_profile.hpp), or nullptr
    /// to detach.  Only WLANPS_OBS builds record into it — the attached
    /// path times every dispatched callback and tracks calendar-queue
    /// maintenance; the unattached path costs one branch per dispatch.
    void attach_profile(obs::KernelProfile* profile) { profile_ = profile; }
    [[nodiscard]] obs::KernelProfile* profile() const { return profile_; }

private:
    friend class EventHandle;
    friend class PeriodicEvent;

    /// Slab-allocated event node.  Fast-path events store their callback
    /// in-place; handle-path events store it in the shared State instead
    /// (so the handle can cancel it); periodic events carry a back-pointer
    /// to their PeriodicEvent and are re-armed without re-allocation.
    struct Node {
        InlineCallback callback;
        std::shared_ptr<EventHandle::State> state;
        PeriodicEvent* periodic = nullptr;
        Node* next_free = nullptr;
    };

    struct Entry {
        Time when;
        std::uint64_t seq;  // tie-break: FIFO among simultaneous events
        Node* node;
        bool operator>(const Entry& rhs) const {
            if (when != rhs.when) return when > rhs.when;
            return seq > rhs.seq;
        }
    };

    /// One wheel bucket, kept ascending by (when, seq) and drained through
    /// `head`, so in-order insertions (the common case) append without
    /// shifting anything.
    struct Bucket {
        std::vector<Entry> entries;
        std::size_t head = 0;  // index of the next entry to dispatch

        [[nodiscard]] std::size_t live() const { return entries.size() - head; }
    };

    static constexpr std::size_t kSlabSize = 256;  // nodes per slab
    // Wheel geometry bounds.  The cap keeps bucket memory bounded: every
    // bucket vector keeps its capacity for the life of the wheel.
    static constexpr std::size_t kMinBuckets = 256;
    static constexpr std::size_t kMaxBuckets = 4096;
    static constexpr unsigned kMinWidthShift = 12;  // 4096 ns buckets
    static constexpr unsigned kMaxWidthShift = 40;  // ~18 min buckets
    static constexpr std::size_t kEntriesPerBucket = 16;  // queued events per bucket
    static constexpr std::uint64_t kMinResizePosts = 4096;  // floor on posts between resizes

    [[nodiscard]] std::uint64_t bucket_id(Time t) const {
        return static_cast<std::uint64_t>(t.ns()) >> width_shift_;
    }

    /// Ascending (when, seq) — the dispatch order.
    [[nodiscard]] static bool entry_less(const Entry& a, const Entry& b) { return b > a; }

    [[nodiscard]] Node* acquire_node();
    void grow_slab();
    void release_node(Node* node);
    void emplace_post(Time when, InlineCallback&& callback);
    void push_entry(Time when, Node* node);
    void wheel_insert(std::uint64_t id, const Entry& entry);
    void post_to_overflow(const Entry& entry);
    void overflow_push(const Entry& entry);
    void rewind_window(std::uint64_t id, const Entry& entry);
    void spill_bucket(std::size_t idx);
    void resize_wheel();
    void migrate_overflow();
    void advance_cursor();
    [[nodiscard]] std::size_t next_occupied_delta() const;
    [[nodiscard]] Entry* find_min();
    void pop_min();
    bool dispatch_next(Time horizon);

    // Periodic fast path (used by PeriodicEvent).
    Node* arm_periodic(Time when, PeriodicEvent* owner);
    void rearm_periodic(Node* node, Time when);
    void cancel_periodic(Node* node);
    void note_handle_cancelled() { ++cancelled_pending_; }

    std::vector<std::unique_ptr<Node[]>> slabs_;
    Node* free_list_ = nullptr;

    std::vector<Bucket> buckets_ = std::vector<Bucket>(kMinBuckets);
    std::vector<std::uint64_t> occupied_ =  // nonempty-bucket bitmap
        std::vector<std::uint64_t>(kMinBuckets / 64);
    std::uint64_t bucket_mask_ = kMinBuckets - 1;
    unsigned width_shift_ = kMinWidthShift;  // bucket width is 2^width_shift_ ns
    std::uint64_t cur_bucket_id_ = 0;  // absolute id of the drain cursor's bucket
    std::size_t wheel_count_ = 0;      // entries resident in the wheel
    std::vector<Entry> overflow_;      // binary min-heap on (when, seq)
    // Resize trigger: posts since the last resize (next_seq_ - resize_seq_)
    // and how many of them went to the overflow.
    std::uint64_t resize_seq_ = 0;
    std::uint64_t overflow_posts_ = 0;
    std::uint64_t resize_after_ = kMinResizePosts;  // posts before the next resize

    std::size_t size_ = 0;  // total queued entries (wheel + overflow)
    std::uint64_t cancelled_pending_ = 0;
    Time now_ = Time::zero();
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
    bool stop_requested_ = false;
    obs::KernelProfile* profile_ = nullptr;  // recorded into in WLANPS_OBS builds
};

/// Scoped periodic activity: reschedules itself every `period` until
/// cancelled or its owner is destroyed.  Used for beacons, polls, meters.
///
/// Periodic ticks ride a dedicated kernel path: the slab node is armed
/// once and re-armed in place on every fire, so a beacon or energy meter
/// costs one queue push per tick — no handle, no allocation, no callback
/// relocation.
class PeriodicEvent {
public:
    PeriodicEvent(Simulator& sim, Time period, InlineCallback tick);
    ~PeriodicEvent();
    PeriodicEvent(const PeriodicEvent&) = delete;
    PeriodicEvent& operator=(const PeriodicEvent&) = delete;

    void start();
    void start_at(Time first_tick);
    void cancel();
    [[nodiscard]] bool running() const { return node_ != nullptr; }
    [[nodiscard]] Time period() const { return period_; }

private:
    friend class Simulator;
    void fire(Simulator::Node* node);

    Simulator& sim_;
    Time period_;
    InlineCallback tick_;
    Simulator::Node* node_ = nullptr;  // armed queue node, owned by sim_
};

// ---------------------------------------------------------------------------
// Inline hot path.  Everything executed once per event (node pool, push,
// find/pop, dispatch, run loop) lives here so the compiler can flatten the
// whole schedule→dispatch cycle; the cold paths (slab growth, window
// rebuilds, overflow migration, bitmap scans) stay in simulator.cpp.
// ---------------------------------------------------------------------------

inline Simulator::Node* Simulator::acquire_node() {
    if (free_list_ == nullptr) grow_slab();
    Node* node = free_list_;
    free_list_ = node->next_free;
    node->next_free = nullptr;
    return node;
}

inline void Simulator::release_node(Node* node) {
    node->callback.reset();
    node->state.reset();
    node->periodic = nullptr;
    node->next_free = free_list_;
    free_list_ = node;
}

inline void Simulator::wheel_insert(std::uint64_t id, const Entry& entry) {
    const std::size_t idx = static_cast<std::size_t>(id & bucket_mask_);
    Bucket& b = buckets_[idx];
    // Keep ascending (when, seq) order.  New events carry the highest seq
    // so far, so unless an earlier-than-tail time arrives this is a plain
    // append.
    if (b.entries.empty()) {
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        b.entries.push_back(entry);
    } else if (entry_less(b.entries.back(), entry)) {
        b.entries.push_back(entry);
    } else {
        auto it = std::upper_bound(b.entries.begin() + static_cast<std::ptrdiff_t>(b.head),
                                   b.entries.end(), entry, &entry_less);
        b.entries.insert(it, entry);
    }
    ++wheel_count_;
}

inline void Simulator::push_entry(Time when, Node* node) {
    const Entry entry{when, next_seq_++, node};
    if (size_ == 0) cur_bucket_id_ = bucket_id(now_);  // wheel is empty: re-anchor
    ++size_;
    const std::uint64_t id = bucket_id(when);
    if (id - cur_bucket_id_ <= bucket_mask_) {  // unsigned: also false when id < cursor
        wheel_insert(id, entry);
    } else if (id >= cur_bucket_id_) {
        post_to_overflow(entry);
    } else {
        // The cursor ran ahead (the previous minimum was far in the
        // future); rewind the window to the new earliest event.
        rewind_window(id, entry);
    }
}

inline void Simulator::emplace_post(Time when, InlineCallback&& callback) {
    WLANPS_REQUIRE_MSG(when >= now_, "cannot schedule into the past");
    WLANPS_REQUIRE_MSG(static_cast<bool>(callback), "null callback");
    Node* node = acquire_node();
    node->callback = std::move(callback);
    push_entry(when, node);
}

inline void Simulator::post_at(Time when, InlineCallback callback) {
    emplace_post(when, std::move(callback));
}

inline void Simulator::post_in(Time delay, InlineCallback callback) {
    WLANPS_REQUIRE_MSG(!delay.is_negative(), "negative delay");
    emplace_post(now_ + delay, std::move(callback));
}

inline Simulator::Entry* Simulator::find_min() {
    for (;;) {
        if (wheel_count_ == 0) {
            // Everything queued sits in the overflow ladder: jump the
            // window to its minimum and migrate what now fits.
            cur_bucket_id_ = bucket_id(overflow_.front().when);
            migrate_overflow();
            continue;
        }
        Bucket& b = buckets_[static_cast<std::size_t>(cur_bucket_id_ & bucket_mask_)];
        if (b.head < b.entries.size()) return &b.entries[b.head];
        advance_cursor();
    }
}

inline void Simulator::pop_min() {
    const std::size_t idx = static_cast<std::size_t>(cur_bucket_id_ & bucket_mask_);
    Bucket& b = buckets_[idx];
    ++b.head;
    --wheel_count_;
    --size_;
    if (b.head == b.entries.size()) {
        b.entries.clear();
        b.head = 0;
        occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
}

inline bool Simulator::dispatch_next(Time horizon) {
    while (size_ > 0) {
        Entry* min = find_min();
        if (min->when > horizon) return false;
        Node* node = min->node;
        const Time when = min->when;
        pop_min();
        if (node->periodic != nullptr) {
            // Periodic path: the node is re-armed in place by fire(); no
            // release, no re-acquire, no callback relocation.
            PeriodicEvent* periodic = node->periodic;
            now_ = when;
            ++dispatched_;
#if defined(WLANPS_OBS_ENABLED)
            if (profile_ != nullptr) {
                const std::uint64_t t0 = obs::KernelProfile::clock_ns();
                periodic->fire(node);
                profile_->on_dispatch(obs::DispatchTag::periodic,
                                      obs::KernelProfile::clock_ns() - t0);
                return true;
            }
#endif
            periodic->fire(node);
            return true;
        }
        if (node->state != nullptr) {
            // Handle path: honour cancellation, and move the callback out
            // of the shared state so the handle reads as no-longer-pending
            // while it runs, and self-rescheduling callbacks work.
            auto state = std::move(node->state);
            release_node(node);
            if (state->cancelled) {
                --cancelled_pending_;
#if defined(WLANPS_OBS_ENABLED)
                if (profile_ != nullptr) profile_->on_cancelled_reaped();
#endif
                continue;
            }
            now_ = when;
            InlineCallback cb = std::move(state->callback);
            ++dispatched_;
#if defined(WLANPS_OBS_ENABLED)
            if (profile_ != nullptr) {
                const std::uint64_t t0 = obs::KernelProfile::clock_ns();
                cb();
                profile_->on_dispatch(obs::DispatchTag::handle,
                                      obs::KernelProfile::clock_ns() - t0);
                return true;
            }
#endif
            cb();
            return true;
        }
        if (!node->callback) {
            // Tombstone of a cancelled periodic event: reap and move on.
            release_node(node);
            --cancelled_pending_;
#if defined(WLANPS_OBS_ENABLED)
            if (profile_ != nullptr) profile_->on_cancelled_reaped();
#endif
            continue;
        }
        // Fast path: invoke in place — the node is off the free list while
        // the callback runs, so self-posting callbacks are safe, and the
        // callable is never relocated.
        now_ = when;
        ++dispatched_;
#if defined(WLANPS_OBS_ENABLED)
        if (profile_ != nullptr) {
            const std::uint64_t t0 = obs::KernelProfile::clock_ns();
            node->callback();
            profile_->on_dispatch(obs::DispatchTag::fast,
                                  obs::KernelProfile::clock_ns() - t0);
            release_node(node);
            return true;
        }
#endif
        node->callback();
        release_node(node);
        return true;
    }
    return false;
}

inline void Simulator::rearm_periodic(Node* node, Time when) { push_entry(when, node); }

inline void Simulator::run() {
    stop_requested_ = false;
    while (!stop_requested_ && dispatch_next(Time::max())) {
    }
}

inline void Simulator::run_until(Time horizon) {
    WLANPS_REQUIRE_MSG(horizon >= now_, "horizon in the past");
    stop_requested_ = false;
    while (!stop_requested_ && dispatch_next(horizon)) {
    }
    if (!stop_requested_ && now_ < horizon) now_ = horizon;
}

inline bool Simulator::step() { return dispatch_next(Time::max()); }

}  // namespace wlanps::sim
