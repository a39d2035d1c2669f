/**
 * @file
 * Point-in-time values of a run's registered statistics.
 *
 * A Snapshot is a flat, ordered copy of every stat a stats::Registry
 * knows about: name, kind, row membership and current value, plus a
 * copy of each histogram's distribution. It is the payload RunResult
 * carries, what the generic JSONL emitter iterates, and what interval
 * sampling stores once per RunConfig::intervalInsts committed
 * instructions.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/histogram.hh"

namespace kilo::stats
{

/** What a registered statistic is. */
enum class Kind : uint8_t
{
    Counter,    ///< monotonically incremented integer, zeroed on reset
    Gauge,      ///< derived value, computed on demand, never reset
    Histogram,  ///< bucketed distribution (util::Histogram)
};

/** Name of a Kind for schema dumps. */
const char *kindName(Kind kind);

/**
 * One numeric value. Integer-valued stats keep their exact uint64
 * representation so JSON emission is bit-faithful; real-valued stats
 * carry a double.
 */
struct Value
{
    bool real = false;  ///< true: read d; false: read u
    uint64_t u = 0;
    double d = 0.0;

    /** Numeric view regardless of representation. */
    double
    asDouble() const
    {
        return real ? d : double(u);
    }

    static Value
    ofInt(uint64_t v)
    {
        Value val;
        val.u = v;
        return val;
    }

    static Value
    ofReal(double v)
    {
        Value val;
        val.real = true;
        val.d = v;
        return val;
    }
};

/** Ordered point-in-time copy of every registered stat. */
struct Snapshot
{
    struct Entry
    {
        std::string name;
        Kind kind = Kind::Counter;
        bool inRow = false;  ///< member of the stable JSONL row schema
        Value value;          ///< Kind::Histogram: the sample count

        /** Kind::Histogram: an immutable copy of the distribution,
         *  shared by copies of the snapshot (out of line, so other
         *  entries pay one pointer); null for other kinds and for
         *  sampled estimates. */
        std::shared_ptr<const Histogram> hist;
    };

    std::vector<Entry> entries;

    bool empty() const { return entries.empty(); }

    /** Entry by name, nullptr when absent. */
    const Entry *find(std::string_view name) const;

    /** Numeric value by name; 0.0 when absent. */
    double value(std::string_view name) const;

    /** Distribution of histogram @p name; nullptr when absent or not
     *  carried (sampled estimates hold counts only). */
    const Histogram *histogram(std::string_view name) const;
};

/**
 * One interval-sampling row (RunConfig::intervalInsts): cumulative
 * measured-region position, the delta since the previous sample, and
 * a full cumulative Snapshot taken at the boundary.
 */
struct IntervalSample
{
    uint64_t index = 0;           ///< 0-based interval number
    uint64_t cycles = 0;          ///< cumulative measured cycles
    uint64_t committed = 0;       ///< cumulative measured instructions
    uint64_t deltaCycles = 0;     ///< cycles in this interval
    uint64_t deltaCommitted = 0;  ///< instructions in this interval
    Snapshot snapshot;            ///< cumulative stats at the boundary

    /** IPC of this interval alone (the IPC-over-time series). */
    double
    intervalIpc() const
    {
        return deltaCycles ? double(deltaCommitted) / double(deltaCycles)
                           : 0.0;
    }
};

} // namespace kilo::stats

