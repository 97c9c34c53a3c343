#pragma once
/// \file metrics_stream.hpp
/// Streaming binary metrics export for population-scale runs.
///
/// The per-client JSON ledger and Chrome traces are the right tool for
/// three IPAQ clients; at 10⁴–10⁶ federation clients they are gigabytes
/// of text nobody can load.  This is their population-scale replacement:
/// a tiny framed little-endian binary format ("WPSM") that a run appends
/// to incrementally — time-series samples at a coarse cadence while the
/// simulation advances, then a summary block and stride-sampled
/// per-client records at teardown.  scripts/bench_diff.py decodes it back
/// into flat numeric keys, so federation runs diff like any metrics JSON.
///
/// Layout: magic "WPSM", u32 version, then frames of
///   u8 type, u32 payload_len, payload
/// with types
///   0 series-def: u32 series_id, u16 name_len, name
///   1 sample:     u32 series_id, i64 t_ns, f64 value
///   2 summary:    u16 key_len, key, f64 value
///   3 client:     u32 client_id, f32 energy_j, f32 qos,
///                 u32 bursts_completed, u32 bursts_shed
/// All integers little-endian; the writer is single-threaded (call it
/// from the owning thread only, between run_until() chunks).

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace wlanps::obs {

inline constexpr char kMetricsStreamMagic[4] = {'W', 'P', 'S', 'M'};
inline constexpr std::uint32_t kMetricsStreamVersion = 1;

/// Appends WPSM frames to a file.  Not thread-safe.
class MetricsStreamWriter {
public:
    /// Opens (truncates) \p path and writes the header.  Throws
    /// ContractViolation if the file cannot be opened.
    explicit MetricsStreamWriter(const std::string& path);

    /// Register a named time series; returns its id for sample().
    [[nodiscard]] std::uint32_t define_series(const std::string& name);

    /// One time-series point.
    void sample(std::uint32_t series_id, std::int64_t t_ns, double value);

    /// One end-of-run summary scalar.
    void summary(const std::string& key, double value);

    /// One stride-sampled per-client record.
    void client(std::uint32_t client_id, float energy_j, float qos,
                std::uint32_t bursts_completed, std::uint32_t bursts_shed);

    /// Flush buffered frames to disk (also done on destruction).
    void flush();

private:
    void frame(std::uint8_t type, const std::vector<std::uint8_t>& payload);

    std::ofstream out_;
    std::uint32_t next_series_ = 0;
};

/// In-memory decode of a WPSM file (tests and small offline tooling; the
/// CI path decodes in python, see scripts/bench_diff.py).
struct MetricsStreamContents {
    struct Sample {
        std::uint32_t series = 0;
        std::int64_t t_ns = 0;
        double value = 0.0;
    };
    struct Client {
        std::uint32_t id = 0;
        float energy_j = 0.0f;
        float qos = 0.0f;
        std::uint32_t bursts_completed = 0;
        std::uint32_t bursts_shed = 0;
    };

    std::vector<std::string> series_names;  // index = series id
    std::vector<Sample> samples;
    std::vector<std::pair<std::string, double>> summaries;
    std::vector<Client> clients;
};

/// Parse \p path; throws ContractViolation on a malformed file.
[[nodiscard]] MetricsStreamContents read_metrics_stream(const std::string& path);

}  // namespace wlanps::obs
