#pragma once
/// \file digest.hpp
/// FNV-1a-64, fed byte by byte: the one digest behind the federation
/// population fingerprint, the determinism tests' world fingerprints and
/// the refactor oracle (tests/oracle_test.cpp).  A word feeds its eight
/// bytes least significant first and a double feeds its bit pattern, so
/// equal inputs give equal digests on every build.

#include <bit>
#include <cstdint>
#include <string_view>

namespace wlanps::sim {

class Fnv1a {
public:
    static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ULL;
    static constexpr std::uint64_t kPrime = 1099511628211ULL;

    constexpr Fnv1a& u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (i * 8)));
        return *this;
    }
    constexpr Fnv1a& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
    /// Length first, then the bytes, so "ab"+"c" and "a"+"bc" differ.
    constexpr Fnv1a& str(std::string_view s) {
        u64(s.size());
        for (const char c : s) byte(static_cast<unsigned char>(c));
        return *this;
    }

    [[nodiscard]] constexpr std::uint64_t value() const { return h_; }

private:
    constexpr void byte(unsigned char b) {
        h_ ^= b;
        h_ *= kPrime;
    }

    std::uint64_t h_ = kOffsetBasis;
};

}  // namespace wlanps::sim
