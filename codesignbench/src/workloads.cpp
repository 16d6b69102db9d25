#include "workloads.hpp"

#include <deque>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "circuits/registry.hpp"
#include "common/error.hpp"
#include "driver.hpp"
#include "serve_rig.hpp"
#include "topology/registry.hpp"
#include "transpiler/pass_registry.hpp"

namespace bench
{

using namespace snail;
namespace fs = std::filesystem;

namespace
{

// Independent seed streams derived from one workload seed.
constexpr unsigned long long kReferenceStream = 0x5245464552454E43ULL;
constexpr unsigned long long kPrefillStream = 0x50524546494C4C31ULL;
constexpr unsigned long long kJobStream = 0x4A4F4253454544ULL;
constexpr unsigned long long kPickStream = 0x5049434B4A4F42ULL;
constexpr unsigned long long kTranspileStream = 0x5452414E53504CULL;

constexpr int kSweepSetupReps = 15;
constexpr int kKiloSetupReps = 7;
constexpr int kServeSetupReps = 7;

/** QV instances generated at set-up, used round-robin. */
constexpr int kKiloInstances = 12;
constexpr const char *kKiloTopology = "chiplet-4096";
constexpr const char *kKiloPipeline = "dense,sabre-route,basis=sqiswap";

/**
 * serve-store traffic.  Store and batch size are the point at which the
 * daemon's cold path was measured: a 90-job batch took 1.015 s on a
 * store of 2016 entries against 0.115 s on an empty one.  Each round
 * re-sends kWarmPerRound batches, cycling over the last kWarmPerRound
 * answered.  That count is not taken from a client trace: it is set so
 * that a 20 s run holds at least 100 warm batches, the sample count of
 * a p90 with ten samples beyond it.  The re-sent entries (at most 720)
 * are fetched every round, so the store's LRU never evicts them.
 */
constexpr std::size_t kPrefillEntries = 2016;
constexpr std::size_t kBatchJobs = 90;
constexpr std::size_t kWarmPerRound = 8;
constexpr int kProbeWarmReps = 5;

unsigned long long
stream(unsigned long long seed, unsigned long long salt, unsigned long long i)
{
    return mixSeed(mixSeed(seed, salt), i);
}

std::string
readText(const std::string &path)
{
    std::ifstream in(path);
    SNAIL_REQUIRE(in.good(), "cannot read " << path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Record the reference operation's totals and check them against the
 * values committed in expected.json for this workload.
 */
void
checkReference(const Options &options, Ledger &ledger, RunResult &run,
               double points, double swaps, double basis_2q)
{
    run.reference = ReferenceTotals{points, swaps, basis_2q};
    JsonValue::Object got;
    got["points"] = JsonValue(points);
    got["swaps_total"] = JsonValue(swaps);
    got["basis_2q_total"] = JsonValue(basis_2q);
    run.info["reference"] = JsonValue(got);

    const JsonValue expected =
        JsonValue::parse(readText(options.bench_dir + "/expected.json"));
    const JsonValue *mine = expected.find(options.workload);
    if (!ledger.check("reference.committed", mine != nullptr,
                      "expected.json has no entry for " + options.workload)) {
        return;
    }
    for (const auto &[key, value] : got) {
        const double want = mine->at(key).asNumber();
        ledger.check("reference." + key, want == value.asNumber(),
                     key + " " + std::to_string(value.asNumber()) +
                         " != committed " + std::to_string(want));
    }
}

/**
 * Time-boxed closed loop: body(k) for k = 0, 1, ... until time is up,
 * recording each round's job rate and CPU per job (the body adds the
 * jobs it completed to loop.points).
 */
template <typename Body>
void
closedLoop(const Options &options, LoopStats &loop, Body &&body)
{
    const Clock::time_point start = Clock::now();
    for (unsigned long long k = 0; msSince(start) < options.seconds * 1000.0;
         ++k) {
        const std::size_t points_before = loop.points;
        const double cpu_before = processCpuSeconds();
        const Clock::time_point round_start = Clock::now();
        body(k, start);
        const double round_ms = msSince(round_start);
        const double points = static_cast<double>(loop.points - points_before);
        if (points > 0.0) {
            loop.round_points_per_s.push_back(1000.0 * points / round_ms);
            loop.round_cpu_ms_per_point.push_back(
                1000.0 * (processCpuSeconds() - cpu_before) / points);
        }
    }
}

} // namespace

// ------------------------------------------------------------------ sweeps

void
runSweepWorkload(const Options &options, const std::string &spec_file,
                 Ledger &ledger, Tracer *tracer, RunResult &run)
{
    const std::string path = options.bench_dir + "/specs/" + spec_file;
    EngineOptions engine;
    engine.threads = options.pool;

    // Set-up: what the first sweep needs before it can run — the spec,
    // its targets, circuits, points, pipelines and distance oracles.
    std::size_t expected_points = 0;
    for (int rep = 0; rep < kSweepSetupReps; ++rep) {
        const Clock::time_point start = Clock::now();
        SweepSpec spec = loadSweepSpecFile(path);
        spec.seed = stream(options.seed, kJobStream, 0);
        const Expansion e = expand(spec, tracer);
        run.loop.setup_s.push_back(msSince(start) / 1000.0);
        expected_points = e.points.size();
        run.layers.oracle_bytes = e.oracle_bytes;
    }
    const SweepSpec base = loadSweepSpecFile(path);

    runOp(ledger, "reference", [&]() {
        SweepSpec spec = base;
        spec.seed = stream(kDefaultSeed, kReferenceStream, 0);
        const SweepRun sweep = runSweep(spec, engine);
        double swaps = 0.0;
        double basis = 0.0;
        for (const PointMetrics &point : sweep.metrics) {
            swaps += static_cast<double>(point.metrics.swaps_total);
            basis += static_cast<double>(point.metrics.basis_2q_total);
        }
        checkReference(options, ledger, run,
                       static_cast<double>(sweep.points.size()), swaps, basis);
    });

    // Every sweep draws a fresh spec seed, so no two share a point.
    auto specFor = [&](unsigned long long k) {
        SweepSpec spec = base;
        spec.seed = stream(options.seed, kJobStream, k);
        return spec;
    };
    auto checkShape = [&](const SweepRun &sweep) {
        ledger.check("sweep.points",
                     sweep.points.size() == expected_points &&
                         sweep.metrics.size() == expected_points,
                     std::to_string(sweep.points.size()) + " points");
        ledger.check("sweep.computed", sweep.stats.computed == sweep.points.size(),
                     "points served from a cache within one sweep");
    };

    if (!tracer) {
        closedLoop(options, run.loop, [&](unsigned long long k, Clock::time_point) {
            runOp(ledger, "sweep", [&]() {
                const SweepSpec spec = specFor(k);
                const Clock::time_point start = Clock::now();
                const SweepRun sweep = runSweep(spec, engine);
                run.loop.op_ms.push_back(msSince(start));
                run.loop.points += sweep.points.size();
                checkShape(sweep);
            });
        });
        return;
    }

    tracer->setPhase(Phase::Op);
    LayerStats &layers = run.layers;
    closedLoop(options, run.loop, [&](unsigned long long k, Clock::time_point) {
        runOp(ledger, "sweep", [&]() {
            const SweepSpec spec = specFor(k);
            const double cpu0 = processCpuSeconds();
            const Clock::time_point start = Clock::now();
            const SweepRun sweep = runSweep(spec, engine);
            layers.untraced_wall_ms += msSince(start);
            layers.untraced_cpu_ms += 1000.0 * (processCpuSeconds() - cpu0);
            checkShape(sweep);

            const Clock::time_point traced_start = Clock::now();
            const TracedSweep traced = tracedSweep(spec, options.pool, tracer);
            layers.traced_wall_ms += msSince(traced_start);

            bool same = traced.results.size() == sweep.metrics.size();
            for (std::size_t i = 0; same && i < sweep.metrics.size(); ++i) {
                same = traced.expansion.points[i].seed == sweep.points[i].seed &&
                       sameMetrics(sweep.metrics[i],
                                   pointMetricsOf(*traced.results[i]));
            }
            ledger.check("trace.reproduces_untraced", same,
                         "traced sweep metrics differ from runSweep");
            recordRouteChecks(ledger, checkSweepRoutes(traced, options.pool, tracer),
                              run.info);
            for (const auto &result : traced.results) {
                layers.swaps += static_cast<double>(result->metrics.swaps_total);
            }
            layers.traced_points += traced.results.size();
        });
    });
}

// --------------------------------------------------------- kiloqubit route

namespace
{

struct KiloSetup
{
    Target target;
    PassManager pipeline;
    std::vector<Circuit> circuits;
};

KiloSetup
kiloSetup(unsigned long long seed, Tracer *tracer, double &oracle_bytes)
{
    const CouplingGraph graph = [&]() {
        SpanGuard span(tracer, "topology", "build");
        return namedTopology(kKiloTopology);
    }();
    Target target = Target::uniform(graph, parseBasisSpec("sqiswap"));
    target.setName(std::string(kKiloTopology) + "-sqiswap");
    {
        SpanGuard span(tracer, "topology", "oracle_build");
        target.graph().ensureDistanceOracle();
    }
    oracle_bytes =
        static_cast<double>(target.graph().distanceOracle().memoryBytes());
    PassManager pipeline;
    {
        SpanGuard all(tracer, "explore", "expand");
        SpanGuard span(tracer, "explore", "pipelines");
        pipeline = passManagerFromSpec(kKiloPipeline);
    }
    std::vector<Circuit> circuits;
    {
        SpanGuard span(tracer, "circuits", "generate");
        for (int i = 0; i < kKiloInstances; ++i) {
            circuits.push_back(makeBenchmark(
                "qv", 64, stream(seed, kJobStream, static_cast<unsigned long long>(i))));
        }
    }
    return KiloSetup{std::move(target), std::move(pipeline), std::move(circuits)};
}

} // namespace

void
runKiloqubitRoute(const Options &options, Ledger &ledger, Tracer *tracer,
                  RunResult &run)
{
    std::optional<KiloSetup> setup;
    for (int rep = 0; rep < kKiloSetupReps; ++rep) {
        setup.reset();
        const Clock::time_point start = Clock::now();
        setup.emplace(kiloSetup(options.seed, tracer, run.layers.oracle_bytes));
        run.loop.setup_s.push_back(msSince(start) / 1000.0);
    }
    const Target &target = setup->target;
    const PassManager &pipeline = setup->pipeline;
    run.info["oracle"] = JsonValue(toString(target.graph().distanceOracle().kind()));

    runOp(ledger, "reference", [&]() {
        const unsigned long long seed = stream(kDefaultSeed, kReferenceStream, 0);
        const TranspileResult result =
            pipeline.run(makeBenchmark("qv", 64, seed), target, seed);
        checkReference(options, ledger, run, 1.0,
                       static_cast<double>(result.metrics.swaps_total),
                       static_cast<double>(result.metrics.basis_2q_total));
    });

    auto jobFor = [&](unsigned long long k) {
        const Circuit &circuit =
            setup->circuits[static_cast<std::size_t>(k % kKiloInstances)];
        return std::make_pair(&circuit, stream(options.seed, kTranspileStream, k));
    };
    auto checkShape = [&](const TranspileResult &result) {
        ledger.check("transpile.routed",
                     result.routed.numQubits() == target.numQubits() &&
                         result.metrics.basis_2q_total > 0,
                     "routed circuit does not span the target");
    };

    if (!tracer) {
        closedLoop(options, run.loop, [&](unsigned long long k, Clock::time_point) {
            runOp(ledger, "transpile", [&]() {
                const auto [circuit, seed] = jobFor(k);
                const Clock::time_point start = Clock::now();
                const TranspileResult result = pipeline.run(*circuit, target, seed);
                run.loop.op_ms.push_back(msSince(start));
                run.loop.points += 1;
                checkShape(result);
            });
        });
        return;
    }

    tracer->setPhase(Phase::Op);
    LayerStats &layers = run.layers;
    closedLoop(options, run.loop, [&](unsigned long long k, Clock::time_point) {
        runOp(ledger, "transpile", [&]() {
            const auto [circuit, seed] = jobFor(k);
            const double cpu0 = processCpuSeconds();
            const Clock::time_point start = Clock::now();
            const TranspileResult untraced = pipeline.run(*circuit, target, seed);
            layers.untraced_wall_ms += msSince(start);
            layers.untraced_cpu_ms += 1000.0 * (processCpuSeconds() - cpu0);
            checkShape(untraced);

            const Clock::time_point traced_start = Clock::now();
            std::optional<TranspileResult> traced;
            {
                SpanGuard job(tracer, "bench", "job");
                traced.emplace(runPassByPass(*circuit, target, pipeline, seed, tracer));
            }
            layers.traced_wall_ms += msSince(traced_start);
            std::string why;
            ledger.check("trace.reproduces_untraced",
                         sameResult(untraced, *traced, &why), why);
            {
                SpanGuard span(tracer, "bench", "check");
                recordRouteChecks(ledger,
                                  {checkRoute(*circuit, *traced, target.graph(), seed)},
                                  run.info);
            }
            layers.swaps += static_cast<double>(traced->metrics.swaps_total);
            layers.traced_points += 1;
        });
    });
}

// ------------------------------------------------------------- serve store

namespace
{

/** A never-seen batch: Fig. 13 combinations with fresh job seeds. */
std::vector<JobSpec>
batchJobs(const std::vector<JobSpec> &universe, unsigned long long seed,
          unsigned long long salt, unsigned long long round)
{
    std::vector<JobSpec> jobs;
    for (std::size_t j = 0; j < kBatchJobs; ++j) {
        const unsigned long long i = round * kBatchJobs + j;
        JobSpec job = universe[stream(seed, kPickStream ^ salt, i) % universe.size()];
        job.seed = stream(seed, salt, i);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

JsonValue
statsRequest()
{
    JsonValue::Object request;
    request["op"] = JsonValue("stats");
    return JsonValue(std::move(request));
}

/** A batch answered cold, kept for re-sending warm. */
struct Answered
{
    std::vector<JobSpec> jobs;
    std::vector<std::string> replies;
};

} // namespace

void
runServeStore(const Options &options, Ledger &ledger, Tracer *tracer,
              RunResult &run)
{
    const std::string root = options.work_dir + "/serve-store";
    const std::string store_dir = root + "/store";
    const std::string shadow_dir = root + "/shadow";
    const SweepSpec spec =
        loadSweepSpecFile(options.bench_dir + "/specs/paper-fig13.json");

    // Untimed preparation: a store already holding a few thousand
    // valid entries, and its byte size as the store's budget, so every
    // new entry evicts an old one and the store stays that size.
    const std::vector<JobSpec> universe = jobUniverse(spec, nullptr, nullptr);
    std::vector<JobSpec> prefill;
    for (std::size_t i = 0; i < kPrefillEntries; ++i) {
        JobSpec job = universe[i % universe.size()];
        job.seed = stream(options.seed, kPrefillStream, i);
        prefill.push_back(std::move(job));
    }
    prefillStore(store_dir, root + "/prefill", prefill, options.pool);
    const unsigned long long budget = CacheStore(store_dir).stats().bytes;
    run.info["store_budget_bytes"] = JsonValue(static_cast<double>(budget));
    if (tracer) {
        // The traced replay writes into a twin of the store, so its
        // store() calls rescan a directory of the same size.
        fs::create_directories(shadow_dir);
        for (const auto &entry : fs::directory_iterator(store_dir)) {
            fs::copy_file(entry.path(), fs::path(shadow_dir) / entry.path().filename());
        }
    }

    // Set-up: the client's job list, then bind + store scan + first ping.
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; rep < kServeSetupReps; ++rep) {
        daemon.reset();
        const Clock::time_point start = Clock::now();
        const std::vector<JobSpec> jobs =
            jobUniverse(spec, tracer, &run.layers.oracle_bytes);
        daemon = std::make_unique<Daemon>("serve.sock", store_dir, budget,
                                          options.pool);
        run.loop.setup_s.push_back(msSince(start) / 1000.0);
    }
    Client &client = daemon->client();

    runOp(ledger, "reference", [&]() {
        const std::vector<JobSpec> jobs =
            batchJobs(universe, kDefaultSeed, kReferenceStream, 0);
        const JsonValue request = batchRequest(jobs);
        const std::vector<std::string> cold = batchResults(
            ledger, "reference.cold", client.request(request), jobs.size(), false);
        const std::vector<std::string> warm = batchResults(
            ledger, "reference.warm", client.request(request), jobs.size(), true);
        ledger.check("warm.equals_cold", warm == cold,
                     "a cached reply differs from its cold reply");
        checkReference(options, ledger, run, static_cast<double>(jobs.size()),
                       sumResultMetric(cold, "swaps_total"),
                       sumResultMetric(cold, "basis_2q_total"));
    });

    std::optional<Service> shadow;
    if (tracer) {
        shadow.emplace(serviceOptions(shadow_dir, budget, options.pool));
        tracer->setPhase(Phase::Op);
    }
    LayerStats &layers = run.layers;
    std::vector<double> cold_ms;
    std::vector<double> warm_ms;
    std::deque<Answered> answered;

    auto coldBatch = [&](unsigned long long round) {
        runOp(ledger, "cold_batch", [&]() {
            Answered batch;
            batch.jobs = batchJobs(universe, options.seed, kJobStream, round);
            const JsonValue request = batchRequest(batch.jobs);
            const double cpu0 = processCpuSeconds();
            const Clock::time_point start = Clock::now();
            const JsonValue reply = client.request(request);
            const double ms = msSince(start);
            cold_ms.push_back(ms);
            run.loop.points += batch.jobs.size();
            batch.replies = batchResults(ledger, "cold", reply, batch.jobs.size(), false);
            if (tracer) {
                layers.untraced_wall_ms += ms;
                layers.untraced_cpu_ms += 1000.0 * (processCpuSeconds() - cpu0);
                const Clock::time_point traced_start = Clock::now();
                const std::vector<ReplayedJob> replays = replayCold(
                    batch.jobs, shadow->cacheStore(), options.pool, tracer);
                layers.traced_wall_ms += msSince(traced_start);
                bool same = replays.size() == batch.replies.size();
                for (std::size_t i = 0; same && i < replays.size(); ++i) {
                    same = replays[i].reply == batch.replies[i];
                }
                ledger.check("trace.reproduces_untraced", same,
                             "traced replay differs from the daemon's reply");
                recordRouteChecks(ledger,
                                  checkReplayRoutes(replays, options.pool, tracer),
                                  run.info);
                for (const ReplayedJob &replay : replays) {
                    layers.swaps += static_cast<double>(replay.result->metrics.swaps_total);
                }
                layers.traced_points += replays.size();
            }
            if (batch.replies.size() == batch.jobs.size()) {
                answered.push_back(std::move(batch));
                if (answered.size() > kWarmPerRound) {
                    answered.pop_front();
                }
            }
        });
    };
    auto warmBatch = [&](std::size_t index) {
        runOp(ledger, "warm_batch", [&]() {
            const Answered &batch = answered[index % answered.size()];
            const JsonValue request = batchRequest(batch.jobs);
            const Clock::time_point start = Clock::now();
            const JsonValue reply = client.request(request);
            const double ms = msSince(start);
            warm_ms.push_back(ms);
            run.loop.points += batch.jobs.size();
            const std::vector<std::string> warm =
                batchResults(ledger, "warm", reply, batch.jobs.size(), true);
            ledger.check("warm.equals_cold", warm == batch.replies,
                         "a cached reply differs from its cold reply");
            if (tracer) {
                const Clock::time_point handle_start = Clock::now();
                const JsonValue handled = shadow->handle(request);
                const double handle_ms = msSince(handle_start);
                layers.handle_ms.push_back(handle_ms);
                layers.transport_ms.push_back(ms - handle_ms);
                const std::vector<std::string> in_process =
                    batchResults(ledger, "handle", handled, batch.jobs.size(), true);
                ledger.check("serve.socket_matches_handle", in_process == warm,
                             "socket reply differs from Service::handle");
                ledger.check("trace.reproduces_untraced",
                             replayWarm(batch.jobs, shadow->cacheStore(),
                                        options.pool, tracer) == batch.replies,
                             "traced fetch differs from the daemon's reply");
            }
        });
    };

    // Closed loop, one client: each round one never-seen batch, then
    // kWarmPerRound re-sends cycling over the batches answered last.
    closedLoop(options, run.loop, [&](unsigned long long round, Clock::time_point start) {
        coldBatch(round);
        for (std::size_t w = 0; w < kWarmPerRound && !answered.empty() &&
                                msSince(start) < options.seconds * 1000.0;
             ++w) {
            warmBatch(static_cast<std::size_t>(round) * kWarmPerRound + w);
        }
    });

    const JsonValue stats = client.request(statsRequest());
    const JsonValue &cache = stats.at("cache");
    layers.has_store = true;
    layers.store_entries = cache.at("entries").asNumber();
    layers.store_hit_ratio = cache.at("hit_rate").asNumber();
    layers.cold_batch_ms = cold_ms;
    layers.warm_batch_ms = warm_ms;
    run.info["store"] = cache;

    run.loop.op_ms = warm_ms;
    run.extra.add("cold_batch_ms_p50", median(cold_ms), "ms");
    run.extra.add("warm_batch_ms_p50", median(warm_ms), "ms");
    if (warm_ms.size() >= 100) {
        run.extra.add("warm_batch_ms_p90", percentile(warm_ms, 90.0), "ms");
    }
    // How the mix weighs the cold and warm paths in points_per_s.
    const double cold_total = std::accumulate(cold_ms.begin(), cold_ms.end(), 0.0);
    const double warm_total = std::accumulate(warm_ms.begin(), warm_ms.end(), 0.0);
    run.extra.add("cold_time_share", cold_total / (cold_total + warm_total), "ratio");
    run.extra.add("warm_time_share", warm_total / (cold_total + warm_total), "ratio");
    run.info["cold_batches"] = JsonValue(static_cast<double>(cold_ms.size()));
    run.info["warm_batches"] = JsonValue(static_cast<double>(warm_ms.size()));
    run.info["batch_jobs"] = JsonValue(static_cast<double>(kBatchJobs));
    run.info["warm_per_round"] = JsonValue(static_cast<double>(kWarmPerRound));

    shadow.reset();
    daemon.reset();
    fs::remove_all(root);
}

// ------------------------------------------------------------------- probe

void
runProbe(const Options &options, Ledger &ledger, Tracer &tracer, RunResult &run)
{
    tracer.setPhase(Phase::Probe);
    LayerStats &probe = run.probe;
    const SweepSpec spec =
        loadSweepSpecFile(options.bench_dir + "/specs/selftest.json");
    EngineOptions engine;
    engine.threads = options.pool;

    runOp(ledger, "selftest.sweep", [&]() {
        const SweepRun sweep = runSweep(spec, engine);
        const TracedSweep traced = tracedSweep(spec, options.pool, &tracer);
        bool same = traced.results.size() == sweep.metrics.size();
        for (std::size_t i = 0; same && i < sweep.metrics.size(); ++i) {
            same = sameMetrics(sweep.metrics[i], pointMetricsOf(*traced.results[i]));
        }
        ledger.check("selftest.sweep_reproduced", same,
                     "pass-by-pass driver differs from runSweep");
        recordRouteChecks(ledger, checkSweepRoutes(traced, options.pool, &tracer),
                          run.info);
        probe.traced_points += traced.results.size();
        probe.oracle_bytes = traced.expansion.oracle_bytes;
    });

    runOp(ledger, "selftest.pass_manager", [&]() {
        const Target target = namedTarget("corral11-16-sqiswap");
        const PassManager pipeline = passManagerFromSpec(kKiloPipeline);
        const Circuit circuit = makeBenchmark("qft", 8);
        const TranspileResult untraced = pipeline.run(circuit, target, kDefaultSeed);
        std::optional<TranspileResult> traced;
        {
            SpanGuard job(&tracer, "bench", "job");
            traced.emplace(runPassByPass(circuit, target, pipeline, kDefaultSeed, &tracer));
        }
        std::string why;
        ledger.check("selftest.pass_manager_reproduced",
                     sameResult(untraced, *traced, &why), why);
        probe.traced_points += 1;
    });

    runOp(ledger, "selftest.serve", [&]() {
        const std::string root = options.work_dir + "/probe";
        std::vector<JobSpec> jobs = jobUniverse(spec, nullptr, nullptr);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].seed = stream(kDefaultSeed, kJobStream, i);
        }
        {
            Daemon daemon("probe.sock", root + "/store", CacheStore::kDefaultMaxBytes,
                          options.pool);
            Service service(serviceOptions(root + "/handle",
                                           CacheStore::kDefaultMaxBytes, options.pool));
            CacheStore replay_store(root + "/replay");
            const JsonValue request = batchRequest(jobs);

            Clock::time_point start = Clock::now();
            const JsonValue cold_reply = daemon.client().request(request);
            probe.cold_batch_ms.push_back(msSince(start));
            const std::vector<std::string> cold =
                batchResults(ledger, "selftest.cold", cold_reply, jobs.size(), false);
            const std::vector<std::string> handled_cold = batchResults(
                ledger, "selftest.handle_cold", service.handle(request), jobs.size(),
                false);
            ledger.check("selftest.socket_matches_handle", handled_cold == cold,
                         "socket round trip differs from Service::handle");
            const std::vector<ReplayedJob> replays =
                replayCold(jobs, replay_store, options.pool, &tracer);
            bool same = replays.size() == cold.size();
            for (std::size_t i = 0; same && i < replays.size(); ++i) {
                same = replays[i].reply == cold[i];
            }
            ledger.check("selftest.replay_reproduced", same,
                         "traced replay differs from the daemon's reply");
            recordRouteChecks(ledger, checkReplayRoutes(replays, options.pool, &tracer),
                              run.info);
            probe.traced_points += replays.size();

            // A few warm re-sends, so the stand-in values are medians.
            for (int rep = 0; rep < kProbeWarmReps; ++rep) {
                start = Clock::now();
                const JsonValue warm_reply = daemon.client().request(request);
                const double warm_ms = msSince(start);
                probe.warm_batch_ms.push_back(warm_ms);
                const std::vector<std::string> warm = batchResults(
                    ledger, "selftest.warm", warm_reply, jobs.size(), true);
                ledger.check("warm.equals_cold", warm == cold,
                             "a cached reply differs from its cold reply");
                start = Clock::now();
                const JsonValue handled = service.handle(request);
                const double handle_ms = msSince(start);
                probe.handle_ms.push_back(handle_ms);
                probe.transport_ms.push_back(warm_ms - handle_ms);
                ledger.check("selftest.socket_matches_handle",
                             batchResults(ledger, "selftest.handle_warm", handled,
                                          jobs.size(), true) == warm,
                             "socket round trip differs from Service::handle");
            }
            ledger.check("selftest.replay_reproduced",
                         replayWarm(jobs, replay_store, options.pool, &tracer) == cold,
                         "traced fetch differs from the daemon's reply");

            const JsonValue stats = daemon.client().request(statsRequest());
            const JsonValue &cache = stats.at("cache");
            probe.has_store = true;
            probe.store_entries = cache.at("entries").asNumber();
            probe.store_hit_ratio = cache.at("hit_rate").asNumber();
        }
        fs::remove_all(root);
    });
}

} // namespace bench
