/**
 * @file
 * codesign_bench: run one workload of the co-design benchmark and
 * print its report as one JSON line.
 *
 *   codesign_bench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> --bench-dir <codesignbench>
 *                  --work-dir <private empty dir> [--trace-out <file>]
 *
 * Workloads: fig13-sweep, fig14-sweep, kiloqubit-route, serve-store.
 * With --trace 0 the report's metrics are the end-to-end set, with
 * --trace 1 the per-layer set (plus a Chrome trace and a self-time
 * table).  run.py builds this binary and turns the report into the
 * benchmark's result line.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "common/scheduler.hpp"
#include "common/version.hpp"
#include "workloads.hpp"

namespace
{

using namespace bench;
using snail::JsonValue;

/** Environment the library reads; cleared so it cannot steer a run. */
const char *const kLibraryEnv[] = {"SNAILQC_POOL_SIZE",
                                   "SNAILQC_DISTANCE_ORACLE",
                                   "SNAILQC_CACHE_DIR", "SNAILQC_SOCKET"};

const char *const kWorkloads[] = {"fig13-sweep", "fig14-sweep",
                                  "kiloqubit-route", "serve-store"};

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument(arg + " needs a value");
        }
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::stoull(value);
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value);
        } else if (arg == "--trace") {
            options.trace = value == "1";
        } else if (arg == "--bench-dir") {
            options.bench_dir = value;
        } else if (arg == "--work-dir") {
            options.work_dir = value;
        } else if (arg == "--trace-out") {
            options.trace_out = value;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  options.workload) == std::end(kWorkloads)) {
        throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    if (!(options.seconds > 0.0) || options.bench_dir.empty() ||
        options.work_dir.empty()) {
        throw std::invalid_argument("--seconds, --bench-dir and --work-dir "
                                    "are required");
    }
    return options;
}

void
runWorkload(const Options &options, Ledger &ledger, Tracer *tracer,
            RunResult &run)
{
    if (options.workload == "fig13-sweep") {
        runSweepWorkload(options, "paper-fig13.json", ledger, tracer, run);
    } else if (options.workload == "fig14-sweep") {
        runSweepWorkload(options, "fig14-84q.json", ledger, tracer, run);
    } else if (options.workload == "kiloqubit-route") {
        runKiloqubitRoute(options, ledger, tracer, run);
        if (!tracer) {
            run.extra.add("transpile_ms_p50", median(run.loop.op_ms), "ms");
        }
    } else {
        runServeStore(options, ledger, tracer, run);
    }
}

JsonValue
layerTable(const std::vector<Span> &spans)
{
    JsonValue::Array rows;
    for (const LayerRow &row : selfTimeTable(spans)) {
        JsonValue::Object out;
        out["layer"] = JsonValue(row.layer);
        out["name"] = JsonValue(row.name);
        out["self_ms"] = JsonValue(row.self_ms);
        out["calls"] = JsonValue(static_cast<double>(row.calls));
        out["share"] = JsonValue(row.share);
        rows.push_back(JsonValue(std::move(out)));
    }
    return JsonValue(std::move(rows));
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    try {
        options = parseArgs(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "codesign_bench: " << error.what() << "\n";
        return 2;
    }

    JsonValue::Object env;
    for (const char *name : kLibraryEnv) {
        const char *value = std::getenv(name);
        env[name] = value ? JsonValue(value) : JsonValue();
        unsetenv(name);
    }
    options.pool = std::min(kPoolSize, usableCores());
    snail::Scheduler::setGlobalWorkerCount(options.pool);
    // Sockets bind relative to the private work directory: short paths.
    if (chdir(options.work_dir.c_str()) != 0) {
        std::cerr << "codesign_bench: cannot enter " << options.work_dir << "\n";
        return 2;
    }

    Ledger ledger;
    Tracer tracer;
    RunResult run;
    try {
        runWorkload(options, ledger, options.trace ? &tracer : nullptr, run);
        if (options.trace) {
            runProbe(options, ledger, tracer, run);
        }
    } catch (const std::exception &error) {
        ledger.check("workload.aborted", false, error.what());
        ledger.endOp();
    }

    const HostCalibration calibration = calibrateHost(options.pool);
    const MetricSet metrics = options.trace
                                  ? perLayerMetrics(tracer, run, options.pool)
                                  : endToEndMetrics(run.loop);
    const double attempted = static_cast<double>(ledger.attempted());
    run.extra.add("failed_share",
                  attempted > 0.0 ? static_cast<double>(ledger.failed()) / attempted
                                  : 1.0,
                  "ratio");

    const snail::VersionInfo version = snail::versionInfo();
    JsonValue::Object host;
    host["calibration_kernel_ms"] = JsonValue(calibration.kernel_ms);
    host["calibration_parallelism"] = JsonValue(calibration.parallelism);
    host["nproc"] = JsonValue(static_cast<double>(usableCores()));
    host["pool"] = JsonValue(static_cast<double>(options.pool));
    host["git_sha"] = JsonValue(version.git_sha);
    host["build_type"] = JsonValue(version.build_type);
    host["library_env"] = JsonValue(std::move(env));

    JsonValue::Object report;
    report["workload"] = JsonValue(options.workload);
    report["seed"] = JsonValue(std::to_string(options.seed));
    report["trace"] = JsonValue(options.trace);
    report["seconds"] = JsonValue(options.seconds);
    report["correct"] = JsonValue(ledger.failed() == 0 && ledger.attempted() > 0);
    report["attempted"] = JsonValue(attempted);
    report["failed"] = JsonValue(static_cast<double>(ledger.failed()));
    report["metrics"] = metrics.toJson();
    report["extra"] = run.extra.toJson();
    report["ledger"] = ledger.toJson();
    report["host"] = JsonValue(std::move(host));
    if (!options.trace) {
        // Sample counts behind the medians, and the spread within the run.
        JsonValue::Object samples;
        samples["setup"] = JsonValue(static_cast<double>(run.loop.setup_s.size()));
        samples["rounds"] =
            JsonValue(static_cast<double>(run.loop.round_points_per_s.size()));
        samples["ops"] = JsonValue(static_cast<double>(run.loop.op_ms.size()));
        samples["op_ms_p25"] = JsonValue(percentile(run.loop.op_ms, 25.0));
        samples["op_ms_p75"] = JsonValue(percentile(run.loop.op_ms, 75.0));
        run.info["samples"] = JsonValue(std::move(samples));
    }
    report["info"] = JsonValue(run.info);
    if (options.trace) {
        const std::vector<Span> spans = tracer.spans();
        JsonValue::Object wall;
        wall["untraced_ms"] = JsonValue(run.layers.untraced_wall_ms);
        wall["traced_ms"] = JsonValue(run.layers.traced_wall_ms);
        report["wall"] = JsonValue(std::move(wall));
        report["layers"] = layerTable(spans);
        if (!options.trace_out.empty()) {
            writeChromeTrace(options.trace_out, spans);
            report["trace_file"] = JsonValue(options.trace_out);
        }
    }
    std::cout << JsonValue(std::move(report)).dump() << std::endl;
    return 0;
}
