/**
 * @file
 * Byte-stable text formatting shared by the metrics dump, the
 * telemetry renderers and span_tool. Header-only: it adds no
 * translation unit, so a -DPREEMPT_OBS=OFF build carries only what
 * the metrics dump uses.
 */

#ifndef PREEMPT_OBS_FORMAT_HH
#define PREEMPT_OBS_FORMAT_HH

#include <cmath>
#include <cstdint>
#include <locale>
#include <ostream>
#include <sstream>
#include <string>

#include "common/histogram.hh"

namespace preempt::obs {

/** Quantile summary of one histogram (lifetime or windowed). */
struct HistStats
{
    std::uint64_t count = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;

    static HistStats
    of(const LatencyHistogram &h)
    {
        return {h.count(), h.min(), h.max(), h.mean(),
                h.p50(),   h.p90(), h.p99(), h.p999()};
    }
};

namespace fmt {

/** A double in the classic "C" locale at fixed precision (a global
 *  locale with ',' decimals or digit grouping must not reach the
 *  byte-identical dumps); NaN/inf render as 0. */
inline std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(6);
    os << std::fixed << v;
    return os.str();
}

/** Escaping shared by JSON strings and Prometheus label values:
 *  backslash, double quote and newline. */
inline std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** The stats members without braces, for objects that add more. */
inline void
jsonStatsFields(std::ostream &os, const HistStats &t)
{
    os << "\"count\": " << t.count << ", \"min\": " << t.min
       << ", \"max\": " << t.max << ", \"mean\": " << num(t.mean)
       << ", \"p50\": " << t.p50 << ", \"p90\": " << t.p90
       << ", \"p99\": " << t.p99 << ", \"p999\": " << t.p999;
}

/** One stats object: {"count": .., "min": .., ..., "p999": ..}. */
inline void
jsonStats(std::ostream &os, const HistStats &t)
{
    os << '{';
    jsonStatsFields(os, t);
    os << '}';
}

} // namespace fmt
} // namespace preempt::obs

#endif // PREEMPT_OBS_FORMAT_HH
