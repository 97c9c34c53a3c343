#pragma once
/// \file hotspot_world.hpp
/// Every hotspot world (paper §2) comes from one module: the single-queue
/// HotspotServer world (stored MP3, proxied A/V, or a MixedWorkload's
/// rows) and the sharded multi-cell world under a schedule-ahead grant
/// planner.  Both build clients with one cell helper and bind faults with
/// one binder.  See DESIGN.md §12.

#include <cstdint>

#include "core/scenario_spec.hpp"

namespace wlanps::core {

/// Build and run the world of the validated hotspot \p spec, with \p seed
/// as the root RNG seed (it overrides spec.stream().seed).
[[nodiscard]] ScenarioResult sim_hotspot(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace wlanps::core
