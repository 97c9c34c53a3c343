/// \file battery_lifetime.cpp
/// Battery-lifetime projection: how each configuration of the Figure 2
/// experiment translates into hours of MP3 playback on the IPAQ 3970's
/// 1400 mAh pack, plus the battery's rate-capacity effect.
///
/// The four configurations run as one experiment grid on the parallel
/// ExperimentRunner — each grid point is one ScenarioSpec.
///
/// Build & run:  ./build/examples/battery_lifetime

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "exp/runner.hpp"
#include "power/battery.hpp"

int main() {
    using namespace wlanps;

    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(120);

    // One grid point per Figure 2 configuration.
    const std::vector<std::string> labels = {"wlan-cam", "wlan-psm", "bt-active", "hotspot-edf"};
    const auto result = exp::ExperimentRunner{}.run(
        exp::ExperimentSpec{}
            .with_run(core::scenarios::spec_grid_run(
                std::make_shared<core::SimBackend>(),
                {core::ScenarioSpec::cam().with_stream(config),
                 core::ScenarioSpec::psm().with_stream(config),
                 core::ScenarioSpec::bt().with_stream(config),
                 core::ScenarioSpec::hotspot().with_stream(config)}))
            .with_points(labels)
            .with_seeds({config.seed}));

    std::printf("Projected MP3 playback on a %s pack (device = WNIC + %.2f W platform):\n\n",
                phy::calibration::kIpaqBattery.str().c_str(),
                phy::calibration::kIpaqBase.watts());
    std::printf("%-26s %14s %12s\n", "configuration", "device power", "lifetime");
    for (std::size_t p = 0; p < labels.size(); ++p) {
        const auto device =
            power::Power::from_watts(result.aggregate.metric(p, "device_w").mean());
        power::Battery battery(power::BatteryConfig{});
        const Time life = battery.lifetime_at(device);
        std::printf("%-26s %14s %9.1f h\n", labels[p].c_str(), device.str().c_str(),
                    life.to_seconds() / 3600.0);
    }

    std::printf("\nRate-capacity effect (Peukert-style): the same energy drawn faster\n"
                "drains more effective charge:\n");
    for (const double watts : {1.0, 2.0, 4.0}) {
        power::Battery battery(power::BatteryConfig{});
        battery.drain(power::Energy::from_joules(5000.0), power::Power::from_watts(watts));
        std::printf("  5 kJ at %.0f W -> battery at %.1f%%\n", watts, 100.0 * battery.level());
    }
    return 0;
}
