/**
 * @file
 * Shared pieces of the co-design benchmark: run options, timing and
 * statistics helpers, the benchmark's own span tracer, the ledger of
 * attempted/failed operations, and the metric sets a run reports.
 *
 * The benchmark never adds instrumentation to the library: every span
 * is recorded here, around calls into a layer's public functions.  An
 * untraced run measures the end-to-end metrics through the public
 * entry points (runSweep, PassManager::run, Client/Server); a traced
 * run repeats each operation through a pass-by-pass driver (driver.hpp)
 * that records per-layer spans, and checks that both agree bit for bit.
 */

#ifndef CODESIGNBENCH_BENCH_HPP
#define CODESIGNBENCH_BENCH_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace bench
{

using Clock = std::chrono::steady_clock;

/** The recorded default workload seed (HPCA 2023, Feb 25). */
constexpr unsigned long long kDefaultSeed = 20230225ULL;

/** Fixed pool size; clamped to the usable cores, never read from env. */
constexpr unsigned kPoolSize = 4;

/** Milliseconds elapsed since `start`. */
double msSince(Clock::time_point start);

/** CPU seconds consumed by every thread of this process so far. */
double processCpuSeconds();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Usable cores (the affinity mask, as `nproc` reports it). */
unsigned usableCores();

/** splitmix64 of a ^ golden-ratio-scaled b: independent seed streams. */
unsigned long long mixSeed(unsigned long long a, unsigned long long b);

/** Median (0 for an empty sample). */
double median(std::vector<double> values);

/** Nearest-rank percentile, p in (0, 100] (0 for an empty sample). */
double percentile(std::vector<double> values, double p);

/** Command-line settings shared by every workload. */
struct Options
{
    std::string workload;
    unsigned long long seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string bench_dir; //!< codesignbench/: specs and expected totals
    std::string work_dir;  //!< private scratch directory of this run
    std::string trace_out; //!< Chrome trace of a traced run ("" = none)
    unsigned pool = kPoolSize;
};

/** Which part of a run a span belongs to. */
enum class Phase : int
{
    Setup,
    Op,
    Probe,
};

/** One closed span: [start, end) on one thread. */
struct Span
{
    std::string layer; //!< src/ module the call went into
    std::string name;  //!< the call, e.g. "dense" or "expand"
    int tid = 0;
    Phase phase = Phase::Op;
    double start_us = 0.0; //!< since the tracer's origin
    double end_us = 0.0;

    double ms() const { return (end_us - start_us) / 1000.0; }
};

/** In-memory span store; written out when the run ends. */
class Tracer
{
  public:
    Tracer();

    /** Phase stamped on spans recorded from now on (any thread). */
    void setPhase(Phase phase);

    void record(const char *layer, std::string name, Clock::time_point start,
                Clock::time_point end);

    std::vector<Span> spans() const;

    /** Inclusive durations (ms) of the matching spans in `phase`. */
    std::vector<double> durations(const std::string &layer,
                                  const std::string &name,
                                  Phase phase) const;

  private:
    Clock::time_point _origin;
    std::atomic<int> _phase{static_cast<int>(Phase::Setup)};
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/** RAII span around one call; does nothing when the tracer is null. */
class SpanGuard
{
  public:
    SpanGuard(Tracer *tracer, const char *layer, std::string name);
    ~SpanGuard();

    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    Tracer *_tracer;
    const char *_layer;
    std::string _name;
    Clock::time_point _start;
};

/** Self time, call count and share of one (layer, name) span kind. */
struct LayerRow
{
    std::string layer;
    std::string name;
    double self_ms = 0.0;
    std::size_t calls = 0;
    double share = 0.0; //!< of all self time in the table
};

/** Self time = duration minus the part covered by child spans. */
std::vector<LayerRow> selfTimeTable(const std::vector<Span> &spans);

/** Chrome trace-event JSON (B/E pairs per thread, metadata names). */
void writeChromeTrace(const std::string &path, const std::vector<Span> &spans);

/**
 * Operations attempted and failed, and the named checks behind them.
 * An operation fails when any check recorded since the previous
 * endOp() failed.  Used from the main thread only.
 */
class Ledger
{
  public:
    /** Record one check; returns `ok`. */
    bool check(const std::string &name, bool ok,
               const std::string &detail = "");

    /** Close one operation. */
    void endOp();

    std::size_t attempted() const { return _attempted; }
    std::size_t failed() const { return _failed; }

    snail::JsonValue toJson() const;

  private:
    std::size_t _attempted = 0;
    std::size_t _failed = 0;
    bool _op_failed = false;
    /** check name -> (run, failed) */
    std::map<std::string, std::pair<std::size_t, std::size_t>> _checks;
    std::vector<std::string> _messages; //!< first few failures
};

/** Run `body` as one operation; an exception is a failed check. */
template <typename Body>
void
runOp(Ledger &ledger, const std::string &name, Body &&body)
{
    try {
        body();
    } catch (const std::exception &error) {
        ledger.check(name + ".threw", false, error.what());
    }
    ledger.endOp();
}

/** Named metric values with units, in insertion order. */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** {"name": {"value": v, "unit": u}, ...} */
    snail::JsonValue toJson() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> _entries;
};

/**
 * Timed-loop observations behind the end-to-end metrics.  Rates are
 * kept per closed-loop round and reported as medians, so a burst of
 * load from outside the benchmark moves a few rounds, not the result.
 */
struct LoopStats
{
    std::vector<double> setup_s; //!< one sample per set-up repetition
    std::size_t points = 0;      //!< transpile jobs completed
    std::vector<double> round_points_per_s;
    std::vector<double> round_cpu_ms_per_point;
    std::vector<double> op_ms; //!< the workload's unit request
};

/**
 * Observations behind the per-layer metrics that spans alone cannot
 * give.  Filled once for the workload's traced operations and once
 * for the self-test probe, whose values stand in for a layer the
 * workload never calls.
 */
struct LayerStats
{
    double untraced_wall_ms = 0.0; //!< summed over the untraced twins
    double untraced_cpu_ms = 0.0;
    double traced_wall_ms = 0.0;
    std::size_t traced_points = 0;
    double swaps = 0.0; //!< over traced_points: route_us_per_swap's base
    double oracle_bytes = 0.0;
    double store_entries = 0.0;
    double store_hit_ratio = 0.0;
    bool has_store = false;
    std::vector<double> handle_ms;
    std::vector<double> transport_ms;
    std::vector<double> cold_batch_ms;
    std::vector<double> warm_batch_ms;
};

/** Summed counts of the default-seed reference operation. */
struct ReferenceTotals
{
    double points = 0.0;
    double swaps = 0.0;
    double basis_2q = 0.0;
};

/** What one workload run reports. */
struct RunResult
{
    LoopStats loop;            //!< untraced runs
    LayerStats layers;         //!< traced runs: the workload's operations
    LayerStats probe;          //!< traced runs: the self-test probe
    ReferenceTotals reference; //!< checked against expected.json
    MetricSet extra;           //!< workload-specific names, printed only
    snail::JsonValue::Object info;
};

/** The end-to-end metric set of an untraced run. */
MetricSet endToEndMetrics(const LoopStats &loop);

/** The per-layer metric set of a traced run. */
MetricSet perLayerMetrics(const Tracer &tracer, const RunResult &run,
                          unsigned pool);

/** Median wall time of a fixed CPU-bound kernel, serial and on the pool. */
struct HostCalibration
{
    double kernel_ms = 0.0;
    double parallelism = 0.0; //!< pool * serial time / pooled time
};
HostCalibration calibrateHost(unsigned pool);

} // namespace bench

#endif // CODESIGNBENCH_BENCH_HPP
