#include "mac/station.hpp"

#include <algorithm>
#include <utility>

#include "obs/flight.hpp"
#include "obs/hooks.hpp"
#include "sim/assert.hpp"
#include "sim/logger.hpp"

namespace wlanps::mac {

WlanStation::WlanStation(sim::Simulator& sim, Bss& bss, StationId id, StationConfig config,
                         DcfConfig dcf, phy::WlanNicConfig nic_config, sim::Random rng)
    : sim_(sim),
      bss_(bss),
      id_(id),
      config_(config),
      nic_(sim, nic_config,
           config.mode == StationMode::cam ? phy::WlanNic::State::idle : phy::WlanNic::State::doze),
      dcf_(sim, bss.medium(), nic_, bss, rng, dcf) {
    WLANPS_REQUIRE_MSG(id != kApId && id != kBroadcast, "reserved station id");
    WLANPS_REQUIRE(config_.listen_interval >= 1);
    bss_.attach(id, *this);
}

void WlanStation::start(Time first_beacon_at, Time beacon_interval) {
    WLANPS_REQUIRE(beacon_interval > Time::zero());
    beacon_interval_ = beacon_interval;
    next_beacon_at_ = first_beacon_at;
    if (config_.mode == StationMode::psm) {
        schedule_wake_for_next_beacon();
    }
    // CAM stations simply stay idle-listening; nothing to schedule.
}

void WlanStation::schedule_wake_for_next_beacon() {
    // Skip ahead by listen_interval beacons; if retrieval overran past the
    // next expected beacon, catch the first one still in the future.
    Time target = next_beacon_at_;
    const Time stride = beacon_interval_ * static_cast<double>(config_.listen_interval);
    while (target <= sim_.now()) target += stride;
    const Time margin = nic_.config().doze_wake_latency + config_.wake_guard;
    Time wake_at = target - margin;
    if (wake_at < sim_.now()) wake_at = sim_.now();

    wake_event_ = sim_.schedule_at(wake_at, [this, target] {
        // The doze span ends here; the wake transition and the listen for
        // the beacon are the price of the PSM listen cycle.
        nic_.set_energy_cause(obs::EnergyCause::beacon_wake);
        const Time wake_issued = sim_.now();
        nic_.wake([this, target, wake_issued] {
            WLANPS_OBS_COUNT("mac.psm.beacon_wakes", 1);
            WLANPS_OBS_FLIGHT(sim_.now().ns(), doze_wakeup, 0, id_, obs::kFlightItfWlan,
                              (sim_.now() - wake_issued).ns());
            WLANPS_LOG(sim::LogLevel::debug, sim_.now(), "psm",
                       "station " << id_ << " awake for beacon at " << target.str());
            // A wake that completes past the beacon's timeout (a stuck
            // wake) has missed that beacon: doze and wake for the next one.
            if (sim_.now() > target + config_.beacon_timeout) {
                back_to_doze();
                return;
            }
            awaiting_beacon_ = true;
            // If the beacon never arrives (collision/loss), doze again.
            timeout_event_ = sim_.schedule_at(target + config_.beacon_timeout, [this] {
                if (awaiting_beacon_) {
                    awaiting_beacon_ = false;
                    back_to_doze();
                }
            });
        });
    });
    next_beacon_at_ = target + stride;
}

void WlanStation::on_frame(const Frame& frame) {
    switch (frame.kind) {
        case FrameKind::beacon:
            ++beacons_heard_;
            WLANPS_OBS_COUNT("mac.psm.beacons_heard", 1);
            if (config_.mode == StationMode::psm && awaiting_beacon_) {
                awaiting_beacon_ = false;
                timeout_event_.cancel();
                on_beacon(frame);
            }
            return;
        case FrameKind::data: {
            if (!frame.payload.is_zero()) {
                ++frames_received_;
                bytes_received_ += frame.payload;
                latency_.add((sim_.now() - frame.enqueued_at).to_seconds());
                if (on_receive_) on_receive_(frame.payload, sim_.now() - frame.enqueued_at);
            }
            if (config_.mode == StationMode::psm && retrieving_) {
                nic_.set_energy_cause(obs::EnergyCause::burst_rx);
                timeout_event_.cancel();
                if (frame.more_data) {
                    poll_retries_ = 0;
                    send_poll();
                } else {
                    retrieving_ = false;
                    back_to_doze();
                }
            }
            return;
        }
        case FrameKind::ack:
        case FrameKind::ps_poll:
        case FrameKind::schedule:
            return;  // handled elsewhere / not addressed to stations here
    }
}

void WlanStation::on_beacon(const Frame& beacon) {
    const bool flagged =
        std::find(beacon.tim.begin(), beacon.tim.end(), id_) != beacon.tim.end();
    if (!flagged) {
        back_to_doze();
        return;
    }
    retrieving_ = true;
    poll_retries_ = 0;
    // Mint a causal flow for this retrieval: every poll, data frame, and
    // doze of the cycle shares it in the flight recorder.
    ++flow_seq_;
    current_flow_ = obs::TraceContext{
        (static_cast<std::uint64_t>(id_) << 32) | flow_seq_,
        static_cast<std::uint32_t>(id_)};
    nic_.set_trace_context(current_flow_);
    send_poll();
}

void WlanStation::send_poll() {
    Frame poll;
    poll.kind = FrameKind::ps_poll;
    poll.src = id_;
    poll.dst = kApId;
    poll.payload = config_.ps_poll_size;
    ++polls_sent_;
    WLANPS_OBS_COUNT("mac.psm.ps_polls", 1);
    WLANPS_OBS_FLIGHT(sim_.now().ns(), polled, current_flow_.flow, id_,
                      obs::kFlightItfWlan, poll_retries_);
    nic_.set_energy_cause(obs::EnergyCause::tx);
    dcf_.enqueue(std::move(poll), [this](const DcfTransmitter::Result& r) {
        if (!retrieving_) {
            // Stale poll (retrieval already ended): doze if nothing else
            // keeps the radio up.
            maybe_doze();
            return;
        }
        if (!r.delivered) {
            poll_timed_out();
            return;
        }
        // Poll delivered; now wait for the AP's data response.
        timeout_event_ = sim_.schedule_in(config_.poll_timeout, [this] {
            if (retrieving_) poll_timed_out();
        });
    });
}

void WlanStation::poll_timed_out() {
    ++poll_retries_;
    WLANPS_OBS_COUNT("mac.psm.poll_timeouts", 1);
    WLANPS_LOG(sim::LogLevel::debug, sim_.now(), "psm",
               "station " << id_ << " poll timeout, retry " << poll_retries_);
    if (poll_retries_ >= config_.poll_retry_limit) {
        retrieving_ = false;
        back_to_doze();  // give up until the next beacon re-advertises
        return;
    }
    send_poll();
}

void WlanStation::send_up(DataSize payload, std::function<void(bool)> done) {
    ++uplink_in_flight_;
    auto transmit = [this, payload, done = std::move(done)]() mutable {
        Frame f;
        f.kind = FrameKind::data;
        f.src = id_;
        f.dst = kApId;
        f.payload = payload;
        dcf_.enqueue(std::move(f), [this, payload, done = std::move(done)](
                                       const DcfTransmitter::Result& r) {
            --uplink_in_flight_;
            if (r.delivered) bytes_sent_ += payload;
            if (done) done(r.delivered);
            // A PSM station dozes again once its uplink drains (and it is
            // not mid-retrieval of downlink traffic).  The regular
            // beacon-wake cycle keeps running, so only the radio state
            // changes here — no rescheduling.
            maybe_doze();
        });
    };
    // Uplink airtime (and any wake it forces) is transmission energy.
    nic_.set_energy_cause(obs::EnergyCause::tx);
    if (config_.mode == StationMode::psm && !nic_.awake()) {
        nic_.wake(std::move(transmit));
    } else {
        transmit();
    }
}

void WlanStation::back_to_doze() {
    if (config_.mode != StationMode::psm) return;
    // Never doze under an in-flight DCF transmission (e.g. a stale re-poll
    // racing a late AP response): the pending frame's completion calls
    // maybe_doze() once the transmitter drains.
    if (dcf_.idle() && uplink_in_flight_ == 0) {
        nic_.doze();
        nic_.set_energy_cause(obs::EnergyCause::idle_listen);
        WLANPS_OBS_COUNT("mac.psm.doze_enters", 1);
    }
    schedule_wake_for_next_beacon();
}

void WlanStation::maybe_doze() {
    if (config_.mode != StationMode::psm) return;
    if (retrieving_ || awaiting_beacon_) return;
    if (!dcf_.idle() || uplink_in_flight_ > 0) return;
    nic_.doze();
    nic_.set_energy_cause(obs::EnergyCause::idle_listen);
    WLANPS_OBS_COUNT("mac.psm.doze_enters", 1);
}

}  // namespace wlanps::mac
