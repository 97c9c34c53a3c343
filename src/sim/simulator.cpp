#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "sim/assert.hpp"

namespace wlanps::sim {

bool EventHandle::pending() const {
    return state_ && !state_->cancelled && static_cast<bool>(state_->callback);
}

void EventHandle::cancel() {
    if (!state_ || state_->cancelled) return;
    state_->cancelled = true;
    // Only count a tombstone if the event is still queued (the callback is
    // moved out of the state right before it runs).
    if (state_->callback && state_->owner != nullptr) state_->owner->note_handle_cancelled();
}

void Simulator::grow_slab() {
    slabs_.push_back(std::make_unique<Node[]>(kSlabSize));
    Node* slab = slabs_.back().get();
    // Chain the fresh slab onto the free list, preserving index order
    // (cosmetic: keeps node reuse patterns predictable in a debugger).
    for (std::size_t i = kSlabSize; i-- > 0;) {
        slab[i].next_free = free_list_;
        free_list_ = &slab[i];
    }
}

void Simulator::overflow_push(const Entry& entry) {
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
}

void Simulator::post_to_overflow(const Entry& entry) {
    overflow_push(entry);
    // Brown-style resize trigger: once at least resize_after_ posts have
    // been made since the last resize and most of them missed the wheel,
    // the geometry no longer fits the queue.
    ++overflow_posts_;
    const std::uint64_t posts = next_seq_ - resize_seq_;
    if (posts >= resize_after_ && 2 * overflow_posts_ > posts) resize_wheel();
}

void Simulator::resize_wheel() {
    std::vector<Entry> queued = std::move(overflow_);
    overflow_.clear();
    queued.reserve(size_);
    for (Bucket& b : buckets_) {
        queued.insert(queued.end(), b.entries.begin() + static_cast<std::ptrdiff_t>(b.head),
                      b.entries.end());
    }

    // Count: ~kEntriesPerBucket queued events per bucket.  Width: the
    // smallest power of two whose span covers the lower quartile of the
    // queued horizons, so the bulk of near-term posts land in the wheel
    // while the long tail (timers that mostly die stale) waits in the heap.
    const std::size_t n = queued.size();
    const std::size_t count =
        std::clamp(std::bit_ceil(std::max<std::size_t>(n / kEntriesPerBucket, 1)), kMinBuckets,
                   kMaxBuckets);
    std::vector<std::uint64_t> horizons;
    horizons.reserve(n);
    for (const Entry& e : queued) {
        horizons.push_back(static_cast<std::uint64_t>(e.when.ns() - now_.ns()));
    }
    std::uint64_t q1 = 0;
    if (n > 0) {
        auto quartile = horizons.begin() + static_cast<std::ptrdiff_t>(n / 4);
        std::nth_element(horizons.begin(), quartile, horizons.end());
        q1 = *quartile;
    }
    unsigned shift = kMinWidthShift;
    while (shift < kMaxWidthShift && (std::uint64_t{count} << shift) < q1) ++shift;

    std::vector<Bucket>(count).swap(buckets_);
    occupied_.assign(count / 64, 0);
    bucket_mask_ = count - 1;
    width_shift_ = shift;
    cur_bucket_id_ = bucket_id(now_);
    wheel_count_ = 0;
    for (const Entry& e : queued) {
        const std::uint64_t id = bucket_id(e.when);
        if (id - cur_bucket_id_ > bucket_mask_) {
            overflow_.push_back(e);
            continue;
        }
        const std::size_t idx = static_cast<std::size_t>(id & bucket_mask_);
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        buckets_[idx].entries.push_back(e);
        ++wheel_count_;
    }
    for (Bucket& b : buckets_) std::sort(b.entries.begin(), b.entries.end(), &entry_less);
    std::make_heap(overflow_.begin(), overflow_.end(), std::greater<>{});

    resize_seq_ = next_seq_;
    overflow_posts_ = 0;
    resize_after_ = std::max<std::uint64_t>(kMinResizePosts, n);
}

void Simulator::spill_bucket(std::size_t idx) {
    Bucket& b = buckets_[idx];
    if (b.entries.empty()) return;
    for (std::size_t i = b.head; i < b.entries.size(); ++i) overflow_push(b.entries[i]);
    wheel_count_ -= b.live();
    b.entries.clear();
    b.head = 0;
    occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

void Simulator::rewind_window(std::uint64_t id, const Entry& entry) {
    // Moving the window back from [cur, cur + N) to [id, id + N) drops the
    // buckets of ids [id + N, cur + N) off its top — the same slots as ids
    // [id, cur) — so only those spill to the overflow; the rest stay put.
    const std::uint64_t drop = std::min(cur_bucket_id_ - id, bucket_mask_ + 1);
    for (std::uint64_t k = 0; k < drop && wheel_count_ > 0; ++k) {
        spill_bucket(static_cast<std::size_t>((id + k) & bucket_mask_));
    }
    cur_bucket_id_ = id;
    wheel_insert(id, entry);
}

void Simulator::migrate_overflow() {
    const std::uint64_t end = cur_bucket_id_ + bucket_mask_ + 1;
    while (!overflow_.empty()) {
        const Entry& top = overflow_.front();
        const std::uint64_t id = bucket_id(top.when);
        if (id >= end) break;
        wheel_insert(id, top);
        std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
        overflow_.pop_back();
    }
}

void Simulator::advance_cursor() {
    cur_bucket_id_ += next_occupied_delta();
    migrate_overflow();
#if defined(WLANPS_OBS_ENABLED)
    if (profile_ != nullptr) {
        profile_->on_bucket_reached(
            buckets_[static_cast<std::size_t>(cur_bucket_id_ & bucket_mask_)].live());
    }
#endif
}

std::size_t Simulator::next_occupied_delta() const {
    // Distance (in buckets, >= 1) from the cursor to the next nonempty
    // bucket, scanning the occupancy bitmap circularly word by word.
    const std::size_t words = occupied_.size();
    const std::size_t base = static_cast<std::size_t>(cur_bucket_id_ & bucket_mask_);
    const std::size_t first = (base + 1) & bucket_mask_;
    std::uint64_t mask = ~std::uint64_t{0} << (first & 63);
    std::size_t word = first >> 6;
    for (std::size_t i = 0; i <= words; ++i) {
        const std::uint64_t bits = occupied_[word] & mask;
        if (bits != 0) {
            const std::size_t found =
                (word << 6) | static_cast<std::size_t>(std::countr_zero(bits));
            const std::size_t delta = (found - base) & bucket_mask_;
            if (delta != 0) return delta;
        }
        mask = ~std::uint64_t{0};
        word = (word + 1) & (words - 1);
    }
    return buckets_.size();  // unreachable while wheel_count_ > 0
}

EventHandle Simulator::schedule_at(Time when, InlineCallback callback) {
    WLANPS_REQUIRE_MSG(when >= now_, "cannot schedule into the past");
    WLANPS_REQUIRE_MSG(static_cast<bool>(callback), "null callback");
    auto state = std::make_shared<EventHandle::State>();
    state->callback = std::move(callback);
    state->owner = this;
    Node* node = acquire_node();
    node->state = state;
    push_entry(when, node);
    return EventHandle(std::move(state));
}

EventHandle Simulator::schedule_in(Time delay, InlineCallback callback) {
    WLANPS_REQUIRE_MSG(!delay.is_negative(), "negative delay");
    return schedule_at(now_ + delay, std::move(callback));
}

Simulator::Node* Simulator::arm_periodic(Time when, PeriodicEvent* owner) {
    WLANPS_REQUIRE_MSG(when >= now_, "cannot schedule into the past");
    Node* node = acquire_node();
    node->periodic = owner;
    push_entry(when, node);
    return node;
}

void Simulator::cancel_periodic(Node* node) {
    node->periodic = nullptr;
    ++cancelled_pending_;
}

PeriodicEvent::PeriodicEvent(Simulator& sim, Time period, InlineCallback tick)
    : sim_(sim), period_(period), tick_(std::move(tick)) {
    WLANPS_REQUIRE_MSG(period_ > Time::zero(), "period must be positive");
    WLANPS_REQUIRE(static_cast<bool>(tick_));
}

PeriodicEvent::~PeriodicEvent() { cancel(); }

void PeriodicEvent::start() { start_at(sim_.now() + period_); }

void PeriodicEvent::start_at(Time first_tick) {
    cancel();
    node_ = sim_.arm_periodic(first_tick, this);
}

void PeriodicEvent::cancel() {
    if (node_ != nullptr) {
        sim_.cancel_periodic(node_);
        node_ = nullptr;
    }
}

void PeriodicEvent::fire(Simulator::Node* node) {
    // Re-arm before invoking the tick, so a tick that cancels the periodic
    // activity wins over the automatic rescheduling.
    sim_.rearm_periodic(node, sim_.now() + period_);
    tick_();
}

}  // namespace wlanps::sim
