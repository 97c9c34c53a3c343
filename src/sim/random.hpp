#pragma once
/// \file random.hpp
/// Reproducible random-number source.
///
/// Every stochastic component takes a Random& (or derives a child stream),
/// so a simulation seeded once is fully deterministic and independent
/// components can use decorrelated streams.

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace wlanps::sim {

/// Seeded pseudo-random stream with the distributions the library needs.
class Random {
public:
    explicit Random(std::uint64_t seed) : engine_(seed), seed_(seed) {}

    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    /// Derive a decorrelated child stream (stable for a given parent seed
    /// and stream id) — e.g. one per client, one per channel.
    [[nodiscard]] Random fork(std::uint64_t stream_id) const {
        return Random(fork_seed(stream_id));
    }

    /// The seed of fork(stream_id), without seeding an engine — for
    /// holders that build the child stream later.
    [[nodiscard]] std::uint64_t fork_seed(std::uint64_t stream_id) const {
        // SplitMix64 over (seed, id) gives well-scrambled child seeds.
        std::uint64_t z = seed_ ^ (stream_id + 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Uniform real in [0, 1).
    [[nodiscard]] double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

    /// Uniform real in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) {
        WLANPS_REQUIRE(lo <= hi);
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /// Uniform integer in [lo, hi] inclusive.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        WLANPS_REQUIRE(lo <= hi);
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /// Bernoulli trial with success probability \p p in [0, 1].
    [[nodiscard]] bool chance(double p) {
        WLANPS_REQUIRE(p >= 0.0 && p <= 1.0);
        return uniform() < p;
    }

    /// Exponential with mean \p mean (> 0).
    [[nodiscard]] double exponential(double mean) {
        WLANPS_REQUIRE(mean > 0.0);
        return std::exponential_distribution<double>(1.0 / mean)(engine_);
    }

    /// Exponential inter-arrival as a Time.
    [[nodiscard]] Time exponential_time(Time mean) {
        return Time::from_seconds(exponential(mean.to_seconds()));
    }

    /// Normal(mu, sigma).
    [[nodiscard]] double normal(double mu, double sigma) {
        WLANPS_REQUIRE(sigma >= 0.0);
        if (sigma == 0.0) return mu;
        return std::normal_distribution<double>(mu, sigma)(engine_);
    }

    /// Pareto with shape \p alpha (> 0) and minimum \p xm (> 0);
    /// heavy-tailed ON/OFF web traffic uses this.
    [[nodiscard]] double pareto(double alpha, double xm) {
        WLANPS_REQUIRE(alpha > 0.0 && xm > 0.0);
        double u;
        do { u = uniform(); } while (u == 0.0);
        return xm / std::pow(u, 1.0 / alpha);
    }

    /// Geometric number of Bernoulli(p) failures before the first success.
    [[nodiscard]] std::int64_t geometric(double p) {
        WLANPS_REQUIRE(p > 0.0 && p <= 1.0);
        return std::geometric_distribution<std::int64_t>(p)(engine_);
    }

    /// Pick an index in [0, weights.size()) with probability ∝ weights[i].
    [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights);

private:
    std::mt19937_64 engine_;
    std::uint64_t seed_;
};

}  // namespace wlanps::sim
