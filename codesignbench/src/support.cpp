#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/thread_pool.hpp"

namespace bench
{

using snail::JsonValue;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

unsigned
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int count = CPU_COUNT(&set);
        if (count > 0) {
            return static_cast<unsigned>(count);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned long long
mixSeed(unsigned long long a, unsigned long long b)
{
    unsigned long long z = a ^ (b * 0x9E3779B97F4A7C15ULL);
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

// ------------------------------------------------------------------ tracer

namespace
{

int
threadIndex()
{
    static std::atomic<int> next{1};
    thread_local const int index = next.fetch_add(1);
    return index;
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::Setup:
        return "setup";
    case Phase::Op:
        return "op";
    case Phase::Probe:
        return "probe";
    }
    return "?";
}

/** Spans grouped per thread, ordered parents-first. */
std::map<int, std::vector<const Span *>>
byThread(const std::vector<Span> &spans)
{
    std::map<int, std::vector<const Span *>> threads;
    for (const Span &span : spans) {
        threads[span.tid].push_back(&span);
    }
    for (auto &[tid, list] : threads) {
        std::stable_sort(list.begin(), list.end(),
                         [](const Span *a, const Span *b) {
                             if (a->start_us != b->start_us) {
                                 return a->start_us < b->start_us;
                             }
                             return a->end_us > b->end_us;
                         });
    }
    return threads;
}

} // namespace

Tracer::Tracer() : _origin(Clock::now()) {}

void
Tracer::setPhase(Phase phase)
{
    _phase.store(static_cast<int>(phase));
}

void
Tracer::record(const char *layer, std::string name, Clock::time_point start,
               Clock::time_point end)
{
    Span span;
    span.layer = layer;
    span.name = std::move(name);
    span.tid = threadIndex();
    span.phase = static_cast<Phase>(_phase.load());
    span.start_us =
        std::chrono::duration<double, std::micro>(start - _origin).count();
    span.end_us =
        std::chrono::duration<double, std::micro>(end - _origin).count();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

std::vector<double>
Tracer::durations(const std::string &layer, const std::string &name,
                  Phase phase) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(_mutex);
    for (const Span &span : _spans) {
        if (span.phase == phase && span.layer == layer && span.name == name) {
            out.push_back(span.ms());
        }
    }
    return out;
}

SpanGuard::SpanGuard(Tracer *tracer, const char *layer, std::string name)
    : _tracer(tracer), _layer(layer), _name(std::move(name)),
      _start(tracer ? Clock::now() : Clock::time_point{})
{
}

SpanGuard::~SpanGuard()
{
    if (_tracer) {
        _tracer->record(_layer, std::move(_name), _start, Clock::now());
    }
}

std::vector<LayerRow>
selfTimeTable(const std::vector<Span> &spans)
{
    std::map<std::pair<std::string, std::string>, LayerRow> rows;
    double total = 0.0;
    for (const auto &[tid, list] : byThread(spans)) {
        std::vector<double> child_ms(list.size(), 0.0);
        std::vector<std::size_t> stack;
        for (std::size_t i = 0; i < list.size(); ++i) {
            while (!stack.empty() &&
                   list[stack.back()]->end_us <= list[i]->start_us) {
                stack.pop_back();
            }
            if (!stack.empty()) {
                child_ms[stack.back()] += list[i]->ms();
            }
            stack.push_back(i);
        }
        for (std::size_t i = 0; i < list.size(); ++i) {
            const double self = std::max(0.0, list[i]->ms() - child_ms[i]);
            LayerRow &row = rows[{list[i]->layer, list[i]->name}];
            row.layer = list[i]->layer;
            row.name = list[i]->name;
            row.self_ms += self;
            row.calls += 1;
            total += self;
        }
    }
    std::vector<LayerRow> out;
    for (auto &[key, row] : rows) {
        row.share = total > 0.0 ? row.self_ms / total : 0.0;
        out.push_back(row);
    }
    std::sort(out.begin(), out.end(), [](const LayerRow &a, const LayerRow &b) {
        return a.self_ms > b.self_ms;
    });
    return out;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    JsonValue::Array events;
    auto event = [](const char *phase, const Span &span, double ts) {
        JsonValue::Object e;
        e["ph"] = JsonValue(phase);
        e["name"] = JsonValue(span.name);
        e["cat"] = JsonValue(span.layer);
        e["ts"] = JsonValue(ts);
        e["pid"] = JsonValue(1);
        e["tid"] = JsonValue(span.tid);
        if (phase[0] == 'B') {
            JsonValue::Object args;
            args["phase"] = JsonValue(phaseName(span.phase));
            e["args"] = JsonValue(std::move(args));
        }
        return JsonValue(std::move(e));
    };
    for (const auto &[tid, list] : byThread(spans)) {
        JsonValue::Object meta;
        meta["ph"] = JsonValue("M");
        meta["name"] = JsonValue("thread_name");
        meta["ts"] = JsonValue(0);
        meta["pid"] = JsonValue(1);
        meta["tid"] = JsonValue(tid);
        JsonValue::Object args;
        args["name"] = JsonValue("bench-thread-" + std::to_string(tid));
        meta["args"] = JsonValue(std::move(args));
        events.push_back(JsonValue(std::move(meta)));

        // Spans of one thread nest, so closing every open span that
        // ends before the next one starts yields balanced, ordered B/E.
        std::vector<const Span *> open;
        for (const Span *span : list) {
            while (!open.empty() && open.back()->end_us <= span->start_us) {
                events.push_back(event("E", *open.back(), open.back()->end_us));
                open.pop_back();
            }
            events.push_back(event("B", *span, span->start_us));
            open.push_back(span);
        }
        while (!open.empty()) {
            events.push_back(event("E", *open.back(), open.back()->end_us));
            open.pop_back();
        }
    }
    JsonValue::Object doc;
    doc["traceEvents"] = JsonValue(std::move(events));
    doc["displayTimeUnit"] = JsonValue("ms");
    std::ofstream out(path);
    out << JsonValue(std::move(doc)).dump() << "\n";
}

// ------------------------------------------------------------------ ledger

bool
Ledger::check(const std::string &name, bool ok, const std::string &detail)
{
    auto &[run, failed] = _checks[name];
    ++run;
    if (!ok) {
        ++failed;
        _op_failed = true;
        if (_messages.size() < 8) {
            _messages.push_back(name + (detail.empty() ? "" : ": " + detail));
        }
    }
    return ok;
}

void
Ledger::endOp()
{
    ++_attempted;
    if (_op_failed) {
        ++_failed;
    }
    _op_failed = false;
}

JsonValue
Ledger::toJson() const
{
    JsonValue::Object checks;
    for (const auto &[name, counts] : _checks) {
        JsonValue::Object entry;
        entry["run"] = JsonValue(static_cast<double>(counts.first));
        entry["failed"] = JsonValue(static_cast<double>(counts.second));
        checks[name] = JsonValue(std::move(entry));
    }
    JsonValue::Array messages;
    for (const std::string &message : _messages) {
        messages.push_back(JsonValue(message));
    }
    JsonValue::Object out;
    out["attempted"] = JsonValue(static_cast<double>(_attempted));
    out["failed"] = JsonValue(static_cast<double>(_failed));
    out["checks"] = JsonValue(std::move(checks));
    out["failures"] = JsonValue(std::move(messages));
    return JsonValue(std::move(out));
}

// ----------------------------------------------------------------- metrics

void
MetricSet::add(const std::string &name, double value, const std::string &unit)
{
    _entries.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

JsonValue
MetricSet::toJson() const
{
    JsonValue::Object out;
    for (const Entry &entry : _entries) {
        JsonValue::Object metric;
        metric["value"] = JsonValue(entry.value);
        metric["unit"] = JsonValue(entry.unit);
        out[entry.name] = JsonValue(std::move(metric));
    }
    return JsonValue(std::move(out));
}

MetricSet
endToEndMetrics(const LoopStats &loop)
{
    MetricSet m;
    m.add("setup_s", median(loop.setup_s), "s");
    m.add("points_per_s", median(loop.round_points_per_s), "1/s");
    m.add("cpu_ms_per_point", median(loop.round_cpu_ms_per_point), "ms");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("op_ms_p50", median(loop.op_ms), "ms");
    return m;
}

namespace
{

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values) {
        total += v;
    }
    return total;
}

double
mean(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

MetricSet
perLayerMetrics(const Tracer &tracer, const RunResult &run, unsigned pool)
{
    const LayerStats &ops = run.layers;
    const LayerStats &probe = run.probe;

    // Spans of the workload (set-up and operations); when the workload
    // never calls a layer, the self-test probe's spans stand in, so a
    // bypassed layer reads as a flat probe cost rather than a zero.
    auto work = [&](const char *layer, const char *name) {
        std::vector<double> d = tracer.durations(layer, name, Phase::Op);
        const std::vector<double> s = tracer.durations(layer, name, Phase::Setup);
        d.insert(d.end(), s.begin(), s.end());
        return d.empty() ? tracer.durations(layer, name, Phase::Probe) : d;
    };
    auto passTotal = [&](const char *pass, Phase phase) {
        return sum(tracer.durations("transpiler", pass, phase));
    };
    auto passMs = [&](const char *pass) {
        const double total = passTotal(pass, Phase::Op);
        if (total > 0.0) {
            return ratio(total, static_cast<double>(ops.traced_points));
        }
        return ratio(passTotal(pass, Phase::Probe),
                     static_cast<double>(probe.traced_points));
    };
    const char *passes[] = {"dense", "stochastic-route", "sabre-route",
                            "basis", "score"};
    double all_passes = 0.0;
    for (const char *pass : passes) {
        all_passes += passTotal(pass, Phase::Op);
    }
    auto share = [&](const char *pass) {
        return ratio(passTotal(pass, Phase::Op), all_passes);
    };
    auto either = [](const std::vector<double> &mine,
                     const std::vector<double> &fallback) {
        return mine.empty() ? fallback : mine;
    };

    MetricSet m;
    m.add("explore.expand_ms", mean(work("explore", "expand")), "ms");
    m.add("circuits.generate_ms", mean(work("circuits", "generate")), "ms");
    m.add("topology.oracle_build_ms", mean(work("topology", "oracle_build")),
          "ms");
    m.add("topology.oracle_bytes",
          ops.oracle_bytes > 0.0 ? ops.oracle_bytes : probe.oracle_bytes,
          "bytes");
    m.add("transpiler.dense.ms", passMs("dense"), "ms");
    m.add("transpiler.dense.share", share("dense"), "ratio");
    m.add("transpiler.stochastic-route.ms", passMs("stochastic-route"), "ms");
    m.add("transpiler.stochastic-route.share", share("stochastic-route"),
          "ratio");
    m.add("transpiler.sabre-route.ms", passMs("sabre-route"), "ms");
    m.add("transpiler.route_us_per_swap",
          ratio(1000.0 * (passTotal("stochastic-route", Phase::Op) +
                          passTotal("sabre-route", Phase::Op)),
                ops.swaps),
          "us");
    m.add("transpiler.score.ms", passMs("score"), "ms");
    m.add("transpiler.score.share", share("score"), "ratio");
    // Exact counts of the default-seed reference operation, the totals
    // checked against expected.json: unlike sums over the time-boxed
    // loop, they do not grow with the number of operations a run fits.
    m.add("transpiler.swaps", run.reference.swaps, "count");
    m.add("transpiler.basis_2q_total", run.reference.basis_2q, "count");
    m.add("scheduler.speedup",
          ratio(sum(tracer.durations("bench", "job", Phase::Op)),
                ops.untraced_wall_ms),
          "ratio");
    m.add("scheduler.utilization",
          ratio(ops.untraced_cpu_ms,
                ops.untraced_wall_ms * static_cast<double>(pool)),
          "ratio");
    const LayerStats &store = ops.has_store ? ops : probe;
    m.add("cache_store.entries", store.store_entries, "count");
    m.add("cache_store.store_us_p50",
          1000.0 * median(work("explore", "cache_store.store")), "us");
    m.add("cache_store.fetch_us_p50",
          1000.0 * median(work("explore", "cache_store.fetch")), "us");
    m.add("cache_store.hit_ratio", store.store_hit_ratio, "ratio");
    m.add("serve.resolve_us_p50", 1000.0 * median(work("serve", "resolve")),
          "us");
    m.add("serve.serialize_us_p50",
          1000.0 * median(work("serve", "serialize")), "us");
    m.add("serve.handle_ms_p50", median(either(ops.handle_ms, probe.handle_ms)),
          "ms");
    m.add("serve.transport_ms_p50",
          median(either(ops.transport_ms, probe.transport_ms)), "ms");
    m.add("serve.cold_batch_ms_p50",
          median(either(ops.cold_batch_ms, probe.cold_batch_ms)), "ms");
    m.add("serve.warm_batch_ms_p50",
          median(either(ops.warm_batch_ms, probe.warm_batch_ms)), "ms");
    m.add("trace.wall_ratio", ratio(ops.traced_wall_ms, ops.untraced_wall_ms),
          "ratio");
    return m;
}

// -------------------------------------------------------- host calibration

namespace
{

/** Fixed integer-mixing loop: no memory traffic, no library code. */
unsigned long long
calibrationKernel(unsigned long long seed)
{
    unsigned long long x = seed | 1ULL;
    unsigned long long acc = 0;
    for (int i = 0; i < 4000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += x * 0x9E3779B97F4A7C15ULL;
    }
    return acc;
}

} // namespace

HostCalibration
calibrateHost(unsigned pool)
{
    std::atomic<unsigned long long> sink{0};
    std::vector<double> serial;
    for (int rep = 0; rep < 5; ++rep) {
        const Clock::time_point start = Clock::now();
        sink += calibrationKernel(static_cast<unsigned long long>(rep));
        serial.push_back(msSince(start));
    }
    std::vector<double> pooled;
    for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point start = Clock::now();
        snail::parallelFor(pool, pool, [&](std::size_t i) {
            sink += calibrationKernel(static_cast<unsigned long long>(i));
        });
        pooled.push_back(msSince(start));
    }
    HostCalibration out;
    out.kernel_ms = median(serial);
    out.parallelism =
        static_cast<double>(pool) * out.kernel_ms / std::max(1e-9, median(pooled));
    return out;
}

} // namespace bench
