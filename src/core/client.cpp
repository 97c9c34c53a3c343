#include "core/client.hpp"

#include <utility>

#include "obs/flight.hpp"
#include "sim/assert.hpp"

namespace wlanps::core {

namespace {
traffic::PlayoutBuffer::Config playout_config(const QosContract& contract) {
    traffic::PlayoutBuffer::Config c;
    c.capacity = contract.client_buffer;
    c.preroll = contract.preroll;
    // Frame granularity follows the stream rate at the MP3 frame cadence.
    c.frame_interval = phy::calibration::kMp3FrameInterval;
    c.frame_size = contract.stream_rate.data_in(c.frame_interval);
    c.start_threshold_frames = contract.start_threshold_frames;
    return c;
}
}  // namespace

HotspotClient::HotspotClient(sim::Simulator& sim, ClientId id, QosContract contract)
    : sim_(sim),
      id_(id),
      contract_(contract),
      playout_(sim, playout_config(contract)),
      created_at_(sim.now()) {}

std::size_t HotspotClient::add_channel(std::unique_ptr<BurstChannel> channel) {
    WLANPS_REQUIRE(channel != nullptr);
    channel->set_delivery_sink([this](DataSize chunk) {
        if (crashed_) return;  // a dead device receives nothing
        bytes_received_ += chunk;
        playout_.on_data(chunk);
    });
    // A crashed device stops ACKing: in-flight chunks through its channels
    // fail rather than silently succeed.
    channel->set_outage_fn([this] { return crashed_; });
    channels_.push_back(std::move(channel));
    return channels_.size() - 1;
}

void HotspotClient::crash() {
    if (crashed_) return;
    crashed_ = true;
    burst_pending_ = false;  // a pending wake will be swallowed
    transfer_trace_.set_state(sim_.now(), "crashed", 0.0);
    // Power truth of a dead device: everything off.  A channel that is
    // mid-transfer keeps its NIC until the (now failing) burst winds down —
    // the transfer machinery owns the radio and deep-sleeps it at the end.
    for (auto& ch : channels_) {
        if (!ch->busy()) ch->wnic().deep_sleep();
    }
}

void HotspotClient::revive() {
    if (!crashed_) return;
    crashed_ = false;
    transfer_trace_.set_state(sim_.now(), "idle", 0.0);
    // NICs stay deep asleep until the next scheduled burst wakes them.
}

void HotspotClient::start(bool start_playout) {
    WLANPS_REQUIRE_MSG(!channels_.empty(), "client needs at least one channel");
    if (start_playout) playout_.start();
    for (auto& ch : channels_) ch->wnic().deep_sleep();
    transfer_trace_.set_state(sim_.now(), "idle", 0.0);
}

std::vector<BurstChannel*> HotspotClient::channels() {
    std::vector<BurstChannel*> out;
    out.reserve(channels_.size());
    for (auto& ch : channels_) out.push_back(ch.get());
    return out;
}

BurstChannel& HotspotClient::channel(std::size_t index) {
    WLANPS_REQUIRE_MSG(index < channels_.size(),
                       "index " + std::to_string(index) + " of " + std::to_string(channels_.size()));
    return *channels_[index];
}

void HotspotClient::execute_burst(std::size_t index, DataSize size, Time start,
                                  BurstChannel::Completion done, obs::TraceContext ctx) {
    WLANPS_REQUIRE(index < channels_.size());
    BurstChannel& ch = *channels_[index];
    WLANPS_REQUIRE_MSG(!ch.busy(), "channel busy");
    const Time wake_at = start - ch.wnic().wake_latency();
    WLANPS_REQUIRE_MSG(wake_at >= sim_.now(), "burst scheduled too soon to wake the NIC");

    // Stamp the channel with this burst's causal identity up front: it is
    // plain data, and keeping it out of the wake lambdas below keeps their
    // captures inside InlineCallback's 64-byte budget.
    ch.set_trace_context(ctx);

    burst_pending_ = true;
    sim_.post_at(wake_at, [this, &ch, size, done = std::move(done)]() mutable {
        if (crashed_) {
            // The schedule message reached a corpse: nothing wakes, the
            // burst never starts and no completion fires — exactly the
            // wedge the server's repair watchdog exists for.
            burst_pending_ = false;
            return;
        }
        // The wake transition's energy belongs to this burst's flow: close
        // the idle span and open a mode_switch span before the radio moves.
        ch.wnic().set_energy_cause(obs::EnergyCause::mode_switch);
        const Time wake_issued = sim_.now();
        ch.wnic().wake([this, &ch, size, wake_issued, done = std::move(done)]() mutable {
            burst_pending_ = false;
            WLANPS_OBS_FLIGHT(sim_.now().ns(), doze_wakeup, ch.trace_context().flow,
                              ch.trace_context().client,
                              phy::flight_itf(ch.interface()),
                              (sim_.now() - wake_issued).ns());
            ch.wnic().set_energy_cause(obs::EnergyCause::burst_rx);
            transfer_trace_.set_state(sim_.now(), "burst", 1.0);
            ch.transfer(size, [this, &ch, done = std::move(done)](const BurstChannel::Result& r) {
                transfer_trace_.set_state(sim_.now(), "idle", 0.0);
                ++bursts_executed_;
                // Client RM: straight back to the deepest sleep — it knows
                // the schedule, nothing arrives until the next burst.
                ch.wnic().set_energy_cause(obs::EnergyCause::mode_switch);
                ch.wnic().deep_sleep([&ch] {
                    ch.wnic().set_energy_cause(obs::EnergyCause::idle_listen);
                });
                if (done) done(r);
            });
        });
    });
}

power::Energy HotspotClient::wnic_energy() const {
    power::Energy total;
    for (const auto& ch : channels_) total += ch->wnic().energy_consumed();
    return total;
}

double HotspotClient::battery_level() {
    if (battery_ == nullptr) return 1.0;
    const power::Energy total = wnic_energy();
    const power::Energy delta = total - battery_charged_;
    battery_charged_ = total;
    if (delta > power::Energy::zero()) {
        battery_->drain(delta, wnic_average_power());
    }
    return battery_->level();
}

power::Power HotspotClient::wnic_average_power() const {
    const Time elapsed = sim_.now() - created_at_;
    if (elapsed.is_zero()) return power::Power::zero();
    return wnic_energy().average_over(elapsed);
}

}  // namespace wlanps::core
