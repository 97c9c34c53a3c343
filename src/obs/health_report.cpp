#include "obs/health_report.hpp"

#include <fstream>

#include "obs/json.hpp"
#include "obs/metrics_stream.hpp"
#include "sim/assert.hpp"

namespace wlanps::obs {

namespace {

void append_u64(std::string& out, const char* key, std::uint64_t value) {
    out += "\"";
    out += key;
    out += "\":" + std::to_string(value);
}

void append_num(std::string& out, const char* key, double value) {
    out += "\"";
    out += key;
    out += "\":" + json_number(value);
}

}  // namespace

double HealthReport::barrier_overhead() const {
    const double denom =
        static_cast<double>(barrier_wait_ns) + static_cast<double>(dispatch_ns);
    if (denom <= 0.0) return 0.0;
    return static_cast<double>(barrier_wait_ns) / denom;
}

void HealthReport::set_watchdog(const Watchdog& watchdog) {
    has_watchdog = true;
    watchdog_checks = watchdog.check_count();
    watchdog_sweeps = watchdog.sweeps();
    watchdog_reports = watchdog.reports();
}

std::string HealthReport::to_json(bool include_timing) const {
    std::string out = "{\"scope\":\"" + json_escape(scope) + "\",";
    append_u64(out, "shards", shards);
    out += ",";
    append_u64(out, "quanta", quanta);
    out += ",";
    append_u64(out, "idle_jumps", idle_jumps);
    out += ",";
    append_u64(out, "events", events);
    out += ",";
    append_num(out, "imbalance_index", imbalance_index);
    out += ",\"skew\":{";
    append_u64(out, "count", skew_count);
    out += ",";
    append_num(out, "mean", skew_mean);
    out += ",";
    append_num(out, "max", skew_max);
    out += "},\"per_shard\":[";
    for (std::size_t i = 0; i < per_shard.size(); ++i) {
        const ShardHealth& sh = per_shard[i];
        if (i > 0) out += ",";
        out += "{";
        append_u64(out, "shard", sh.shard);
        out += ",";
        append_u64(out, "events", sh.events);
        out += ",";
        append_u64(out, "cross_sent", sh.cross_sent);
        out += ",";
        append_u64(out, "cross_received", sh.cross_received);
        out += ",";
        append_u64(out, "mailbox_peak", sh.mailbox_peak);
        out += ",";
        append_u64(out, "busy_quanta", sh.busy_quanta);
        out += ",";
        append_u64(out, "max_events_quantum", sh.max_events_quantum);
        if (include_timing) {
            out += ",";
            append_u64(out, "dispatch_ns", sh.dispatch_ns);
            out += ",";
            append_u64(out, "flush_ns", sh.flush_ns);
        }
        out += "}";
    }
    out += "]";
    if (!per_cell.empty()) {
        out += ",\"per_cell\":[";
        for (std::size_t i = 0; i < per_cell.size(); ++i) {
            const CellHealth& c = per_cell[i];
            if (i > 0) out += ",";
            out += "{";
            append_u64(out, "cell", c.cell);
            out += ",";
            append_u64(out, "shard", c.shard);
            out += ",";
            append_u64(out, "arrivals", c.arrivals);
            out += ",";
            append_u64(out, "departures", c.departures);
            out += ",";
            append_u64(out, "rejected", c.rejected);
            out += ",";
            append_u64(out, "deferred", c.deferred);
            out += ",";
            append_u64(out, "degraded", c.degraded);
            out += ",";
            append_u64(out, "faults_injected", c.faults_injected);
            out += ",";
            append_u64(out, "faults_missed", c.faults_missed);
            out += ",";
            append_u64(out, "peak_association", c.peak_association);
            out += "}";
        }
        out += "]";
    }
    if (has_population) {
        out += ",\"population\":{";
        append_u64(out, "population", population);
        out += ",";
        append_u64(out, "bursts_admitted", bursts_admitted);
        out += ",";
        append_u64(out, "bursts_completed", bursts_completed);
        out += ",";
        append_u64(out, "bursts_shed", bursts_shed);
        out += ",\"conserved\":";
        out += conserved ? "true" : "false";
        out += ",";
        append_u64(out, "fingerprint_hi", fingerprint >> 32);
        out += ",";
        append_u64(out, "fingerprint_lo", fingerprint & 0xffffffffULL);
        out += "}";
    }
    if (has_watchdog) {
        out += ",\"watchdog\":{";
        append_u64(out, "checks", watchdog_checks);
        out += ",";
        append_u64(out, "sweeps", watchdog_sweeps);
        out += ",";
        append_u64(out, "violations", watchdog_reports.size());
        out += ",\"reports\":[";
        for (std::size_t i = 0; i < watchdog_reports.size(); ++i) {
            if (i > 0) out += ",";
            out += obs::to_json(watchdog_reports[i]);
        }
        out += "]}";
    }
    if (include_timing) {
        // Workers is reported here, not in the deterministic body: the
        // same simulation at a different thread count must produce
        // byte-identical default JSON.
        out += ",\"timing\":{";
        append_u64(out, "workers", workers);
        out += ",";
        append_u64(out, "barrier_wait_ns", barrier_wait_ns);
        out += ",";
        append_u64(out, "dispatch_ns", dispatch_ns);
        out += ",";
        append_u64(out, "flush_ns", flush_ns);
        out += ",";
        append_num(out, "imbalance_index_ns", imbalance_index_ns);
        out += ",";
        append_num(out, "barrier_overhead", barrier_overhead());
        out += "}";
    }
    out += "}";
    return out;
}

void HealthReport::write_file(const std::string& path, bool include_timing) const {
    std::ofstream out(path, std::ios::trunc);
    WLANPS_REQUIRE_MSG(static_cast<bool>(out),
                       "cannot open health report file: " + path);
    out << to_json(include_timing) << "\n";
}

void HealthReport::export_stream(MetricsStreamWriter& writer) const {
    writer.summary("health.quanta", static_cast<double>(quanta));
    writer.summary("health.idle_jumps", static_cast<double>(idle_jumps));
    writer.summary("health.events", static_cast<double>(events));
    writer.summary("health.imbalance_index", imbalance_index);
    writer.summary("health.watchdog_violations",
                   static_cast<double>(watchdog_reports.size()));
    for (const ShardHealth& sh : per_shard) {
        const std::string prefix = "health.shard" + std::to_string(sh.shard);
        writer.summary(prefix + ".events", static_cast<double>(sh.events));
        writer.summary(prefix + ".mailbox_peak", static_cast<double>(sh.mailbox_peak));
    }
}

}  // namespace wlanps::obs
