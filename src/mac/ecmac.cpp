#include "mac/ecmac.hpp"

#include <utility>

#include "obs/hooks.hpp"
#include "sim/assert.hpp"

namespace wlanps::mac {

namespace {
/// Airtime of one scheduled data MPDU exchange: DATA + SIFS + ACK + SIFS.
Time mpdu_exchange_time(const EcMacConfig& c, DataSize payload) {
    const Time data_air = phy::calibration::kWlanPlcpOverhead +
                          c.data_rate.transmit_time(payload + phy::calibration::kWlanMacHeader);
    const Time ack_air = phy::calibration::kWlanPlcpOverhead +
                         c.basic_rate.transmit_time(phy::calibration::kWlanAckFrame);
    return data_air + c.sifs + ack_air + c.sifs;
}
}  // namespace

EcMacController::EcMacController(sim::Simulator& sim, Bss& bss, EcMacConfig config,
                                 sim::Random rng)
    : sim_(sim),
      bss_(bss),
      config_(config),
      nic_(sim, phy::WlanNicConfig{}, phy::WlanNic::State::idle),
      rng_(rng) {
    WLANPS_REQUIRE(config_.superframe > Time::zero());
    bss_.attach(kApId, *this);
}

void EcMacController::start() {
    anchor_ = sim_.now() + config_.superframe;
    sim_.post_at(anchor_, [this] { superframe_boundary(); });
}

void EcMacController::send(StationId dst, DataSize payload, SendCallback done) {
    WLANPS_REQUIRE(dst != kApId);
    // Fragment anything larger than one MPDU.
    while (payload > config_.max_mpdu) {
        buffers_[dst].push_back(Buffered{config_.max_mpdu, {}, sim_.now()});
        payload -= config_.max_mpdu;
    }
    buffers_[dst].push_back(Buffered{payload, std::move(done), sim_.now()});
}

std::size_t EcMacController::buffered(StationId dst) const {
    auto it = buffers_.find(dst);
    return it == buffers_.end() ? 0 : it->second.size();
}

void EcMacController::superframe_boundary() {
    ++superframes_;
    WLANPS_OBS_COUNT("mac.ecmac.superframes", 1);
    anchor_ += config_.superframe;
    sim_.post_at(anchor_, [this] { superframe_boundary(); });

    // Build this superframe's schedule.
    Frame sched;
    sched.kind = FrameKind::schedule;
    sched.src = kApId;
    sched.dst = kBroadcast;
    sched.seq = ++seq_;
    struct Plan {
        StationId dst;
        std::size_t frames;
        Time start;  // absolute slot start
    };
    std::vector<Plan> plans;

    DataSize sched_size = config_.schedule_base_size;
    Time cursor = Time::zero();  // relative to end of schedule frame
    for (auto& [dst, q] : buffers_) {
        if (q.empty()) continue;
        DataSize quota = config_.per_station_quota;
        Time duration = Time::zero();
        std::size_t frames = 0;
        for (const Buffered& b : q) {
            if (frames > 0 && b.payload > quota) break;
            duration += mpdu_exchange_time(config_, b.payload);
            quota = b.payload >= quota ? DataSize::zero() : quota - b.payload;
            ++frames;
            if (quota.is_zero()) break;
        }
        const Time offset = cursor + config_.slot_guard;
        sched.schedule.push_back(ScheduleEntry{dst, offset, duration});
        WLANPS_OBS_COUNT("mac.ecmac.slots_scheduled", 1);
        WLANPS_OBS_RECORD("mac.ecmac.slot_frames", frames);
        plans.push_back(Plan{dst, frames, Time::zero()});
        cursor = offset + duration;
        sched_size += config_.schedule_entry_size;
    }

    // Broadcast the schedule (collision-free: the controller owns the
    // superframe boundary).
    const Time sched_air = phy::calibration::kWlanPlcpOverhead +
                           config_.basic_rate.transmit_time(sched_size);
    const bool anyone = bss_.reception_begins(sched, sched_air);
    (void)anyone;  // stations that overslept simply miss this superframe
    nic_.occupy(phy::WlanNic::State::tx, sched_air);
    const Time sched_end = sim_.now() + sched_air;
    bss_.medium().transmit(sched_air, [this, sched](bool collided) {
        if (!collided) bss_.deliver(sched);
    });

    // Fire each slot at its absolute time.
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const Time slot_start = sched_end + sched.schedule[i].offset;
        const StationId dst = plans[i].dst;
        const std::size_t frames = plans[i].frames;
        sim_.post_at(slot_start, [this, dst, frames] { transmit_slot(dst, frames); });
    }
}

void EcMacController::transmit_slot(StationId dst, std::size_t frame_count) {
    auto it = buffers_.find(dst);
    if (it == buffers_.end() || it->second.empty()) return;
    auto& q = it->second;
    std::vector<Buffered> batch;
    for (std::size_t i = 0; i < frame_count && !q.empty(); ++i) {
        batch.push_back(std::move(q.front()));
        q.pop_front();
    }
    transmit_one(dst, std::move(batch), 0);
}

void EcMacController::transmit_one(StationId dst, std::vector<Buffered> batch, std::size_t index) {
    if (index >= batch.size()) return;
    Frame f;
    f.kind = FrameKind::data;
    f.src = kApId;
    f.dst = dst;
    f.payload = batch[index].payload;
    f.seq = ++seq_;
    // Latency accounting spans the superframe wait, not just the slot.
    f.enqueued_at = batch[index].queued_at;
    f.more_data = index + 1 < batch.size();

    const Time data_air = phy::calibration::kWlanPlcpOverhead +
                          config_.data_rate.transmit_time(f.payload + phy::calibration::kWlanMacHeader);
    const Time ack_air = phy::calibration::kWlanPlcpOverhead +
                         config_.basic_rate.transmit_time(phy::calibration::kWlanAckFrame);

    const bool listening = bss_.reception_begins(f, data_air);
    const bool channel = bss_.channel_ok(f, sim_.now(), f.payload + phy::calibration::kWlanMacHeader,
                                         config_.data_rate);
    nic_.occupy(phy::WlanNic::State::tx, data_air);
    // The DATA→SIFS→ACK→SIFS continuation chain shares one boxed context
    // (the batch, the in-flight frame, the ACK airtime), so each hop only
    // captures `this` plus the shared_ptr and fits the kernel's inline
    // callback storage.
    struct TxContext {
        StationId dst;
        std::vector<Buffered> batch;
        std::size_t index;
        Frame f;
        Time ack_air;
    };
    auto ctx = std::make_shared<TxContext>(
        TxContext{dst, std::move(batch), index, f, ack_air});
    bss_.medium().transmit(data_air, [this, ctx, listening, channel](bool collided) {
        const bool ok = !collided && listening && channel;
        if (!ok) {
            // Re-buffer for the next superframe; continue the slot so the
            // remaining frames still use their reserved airtime.
            buffers_[ctx->dst].push_front(std::move(ctx->batch[ctx->index]));
            sim_.post_in(config_.sifs, [this, ctx] {
                transmit_one(ctx->dst, std::move(ctx->batch), ctx->index + 1);
            });
            return;
        }
        sim_.post_in(config_.sifs, [this, ctx] {
            bss_.ack_begins(ctx->f, ctx->ack_air);
            bss_.medium().transmit(ctx->ack_air, [this, ctx](bool) {
                bss_.deliver(ctx->f);
                if (ctx->batch[ctx->index].done) ctx->batch[ctx->index].done(true);
                sim_.post_in(config_.sifs, [this, ctx] {
                    transmit_one(ctx->dst, std::move(ctx->batch), ctx->index + 1);
                });
            });
        });
    });
}

EcMacStation::EcMacStation(sim::Simulator& sim, Bss& bss, StationId id, EcMacConfig config,
                           phy::WlanNicConfig nic_config)
    : sim_(sim),
      bss_(bss),
      id_(id),
      config_(config),
      nic_(sim, nic_config, phy::WlanNic::State::doze) {
    WLANPS_REQUIRE(id != kApId && id != kBroadcast);
    WLANPS_REQUIRE(config_.superframe > Time::zero());
    bss_.attach(id, *this);
}

void EcMacStation::start(Time first_boundary) {
    next_boundary_ = first_boundary;
    wake_for_boundary();
}

void EcMacStation::wake_for_boundary() {
    // Slots that overran the superframe leave next_boundary_ behind: catch
    // the first boundary still in the future.
    while (next_boundary_ <= sim_.now()) next_boundary_ += config_.superframe;
    const Time margin = nic_.config().doze_wake_latency + Time::from_ms(1);
    Time wake_at = next_boundary_ - margin;
    if (wake_at < sim_.now()) wake_at = sim_.now();
    const Time boundary = next_boundary_;
    next_boundary_ += config_.superframe;
    sim_.post_at(wake_at, [this, boundary] {
        nic_.wake([this, boundary] {
            // If no schedule frame names us shortly after the boundary,
            // doze until the next one (on_frame cancels nothing — dozing
            // is decided when the schedule frame is processed, and this
            // timeout only fires if we heard no schedule at all).
            sim_.post_at(boundary + Time::from_ms(10), [this, boundary] {
                if (last_schedule_at_ < boundary) {
                    nic_.doze();
                    wake_for_boundary();
                }
            });
        });
    });
}

void EcMacStation::on_frame(const Frame& frame) {
    if (frame.kind == FrameKind::schedule) {
        last_schedule_at_ = sim_.now();
        const Time base = sim_.now();  // offsets are relative to schedule end
        bool assigned = false;
        for (const ScheduleEntry& e : frame.schedule) {
            if (e.station != id_) continue;
            assigned = true;
            const Time margin = nic_.config().doze_wake_latency + Time::from_us(500);
            const Time slot_start = base + e.offset;
            const Time slot_end = slot_start + e.duration;
            // Doze in the gap before our slot only if it pays for the
            // transition; otherwise stay idle.
            if (e.offset > margin + Time::from_ms(5)) {
                nic_.doze();
                sim_.post_at(slot_start - margin, [this] { nic_.wake({}); });
            }
            sim_.post_at(slot_end + Time::from_us(100), [this] {
                nic_.doze();
                wake_for_boundary();
            });
        }
        if (!assigned) {
            nic_.doze();
            wake_for_boundary();
        }
        return;
    }
    if (frame.kind == FrameKind::data && !frame.payload.is_zero()) {
        ++frames_received_;
        bytes_received_ += frame.payload;
        if (on_receive_) on_receive_(frame.payload, sim_.now() - frame.enqueued_at);
    }
}

}  // namespace wlanps::mac
