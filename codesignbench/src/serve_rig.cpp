#include "serve_rig.hpp"

#include <atomic>
#include <filesystem>

#include "common/error.hpp"

namespace bench
{

using namespace snail;
namespace fs = std::filesystem;

ServiceOptions
serviceOptions(const std::string &store_dir, unsigned long long max_bytes,
               unsigned pool)
{
    ServiceOptions options;
    options.cache_dir = store_dir;
    options.cache_max_bytes = max_bytes;
    options.queue_limit = 1u << 16; // one closed-loop client never queues
    options.batch_threads = pool;
    return options;
}

Daemon::Daemon(const std::string &socket, const std::string &store_dir,
               unsigned long long max_bytes, unsigned pool)
{
    ServerOptions options;
    options.socket_path = socket;
    options.service = serviceOptions(store_dir, max_bytes, pool);
    options.handle_signals = false;
    _server = std::make_unique<Server>(options);
    _thread = std::thread([this]() {
        try {
            _server->serve();
        } catch (const std::exception &error) {
            _error = error.what();
        }
        _down.store(true);
    });
    try {
        const Clock::time_point start = Clock::now();
        while (!_client) {
            try {
                _client = std::make_unique<Client>(socket);
            } catch (const std::exception &) {
                // _error is written before _down is set, so it is safe
                // to read once _down reads true.
                if (_down.load()) {
                    SNAIL_THROW("daemon on " << socket << " stopped: " << _error);
                }
                SNAIL_REQUIRE(msSince(start) < 10000.0,
                              "daemon on " << socket << " did not come up");
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
        }
        JsonValue::Object ping;
        ping["op"] = JsonValue("ping");
        const JsonValue reply = _client->request(JsonValue(std::move(ping)));
        SNAIL_REQUIRE(reply.at("ok").asBool(), "daemon did not answer ping");
    } catch (...) {
        stop();
        throw;
    }
}

Daemon::~Daemon() { stop(); }

void
Daemon::stop()
{
    _client.reset();
    if (_server) {
        _server->requestStop();
    }
    if (_thread.joinable()) {
        _thread.join();
    }
}

std::vector<JobSpec>
jobUniverse(const SweepSpec &spec, Tracer *tracer, double *oracle_bytes)
{
    const Expansion e = expand(spec, tracer);
    int max_width = 0;
    for (const Target &target : e.targets) {
        max_width = std::max(max_width, target.numQubits());
    }
    // expandCircuits builds one instance per (benchmark, width) in spec
    // order, which names the benchmark behind each circuit index.
    std::vector<std::string> bench_of;
    for (const CircuitSpec &circuit : spec.circuits) {
        SNAIL_REQUIRE(!circuit.bench.empty(), "job universe: QASM entries "
                                              "have no wire benchmark name");
        for (int width : circuit.widths) {
            if (width <= max_width) {
                bench_of.push_back(circuit.bench);
            }
        }
    }
    SNAIL_REQUIRE(bench_of.size() == e.circuits.size(),
                  "job universe: circuit expansion out of step with the spec");

    std::vector<JobSpec> jobs;
    for (const SweepPoint &point : e.points) {
        JobSpec job;
        job.bench = bench_of[point.circuit_index];
        job.width = point.width;
        job.target_name = point.target_label;
        job.pipeline = point.pipeline;
        jobs.push_back(std::move(job));
    }
    if (oracle_bytes) {
        *oracle_bytes = e.oracle_bytes;
    }
    return jobs;
}

JsonValue
batchRequest(const std::vector<JobSpec> &jobs)
{
    JsonValue::Array list;
    list.reserve(jobs.size());
    for (const JobSpec &job : jobs) {
        list.push_back(job.toJson());
    }
    JsonValue::Object request;
    request["op"] = JsonValue("batch");
    request["jobs"] = JsonValue(std::move(list));
    return JsonValue(std::move(request));
}

namespace
{

std::string
renderReply(const JsonValue &key, const JsonValue &result)
{
    JsonValue::Object entry;
    entry["key"] = key;
    entry["result"] = result;
    return JsonValue(std::move(entry)).dump();
}

} // namespace

std::vector<std::string>
batchResults(Ledger &ledger, const std::string &what, const JsonValue &reply,
             std::size_t jobs, bool expect_cached)
{
    std::vector<std::string> out;
    const JsonValue *ok = reply.isObject() ? reply.find("ok") : nullptr;
    if (!ledger.check(what + ".ok", ok && ok->isBool() && ok->asBool(),
                      reply.dump().substr(0, 240))) {
        return out;
    }
    const JsonValue::Array &results = reply.at("results").asArray();
    if (!ledger.check(what + ".jobs", results.size() == jobs,
                      std::to_string(results.size()) + " results for " +
                          std::to_string(jobs) + " jobs")) {
        return out;
    }
    bool flags_ok = true;
    for (const JsonValue &result : results) {
        flags_ok = flags_ok && result.at("cached").asBool() == expect_cached;
        out.push_back(renderReply(result.at("key"), result.at("result")));
    }
    ledger.check(what + ".cached_flags", flags_ok,
                 expect_cached ? "a re-sent job was recomputed"
                               : "a never-seen job was served from the store");
    return out;
}

std::vector<ReplayedJob>
replayCold(const std::vector<JobSpec> &jobs, CacheStore &store, unsigned pool,
           Tracer *tracer)
{
    std::vector<ReplayedJob> out(jobs.size());
    tracedFanOut(jobs.size(), pool, tracer, "job", [&](std::size_t i) {
        ReplayedJob &replay = out[i];
        CacheKey key;
        {
            SpanGuard span(tracer, "serve", "resolve");
            replay.job.emplace(resolveJob(jobs[i]));
            key = replay.job->cacheKey();
        }
        {
            SpanGuard span(tracer, "explore", "cache_store.miss");
            SNAIL_REQUIRE(!store.fetch(key),
                          "replay store already held a never-seen job");
        }
        const ResolvedJob &job = *replay.job;
        replay.result.emplace(runPassByPass(job.circuit, job.target,
                                            job.pipeline, job.seed, tracer));
        std::string payload;
        {
            SpanGuard span(tracer, "serve", "serialize");
            payload = serializeResult(*replay.result);
        }
        {
            SpanGuard span(tracer, "explore", "cache_store.store");
            store.store(key, payload);
        }
        replay.reply = renderReply(JsonValue(CacheStore::entryName(key)),
                                   JsonValue::parse(payload));
    });
    return out;
}

std::vector<std::string>
replayWarm(const std::vector<JobSpec> &jobs, CacheStore &store, unsigned pool,
           Tracer *tracer)
{
    std::vector<std::string> out(jobs.size());
    tracedFanOut(jobs.size(), pool, tracer, "warm_job", [&](std::size_t i) {
        CacheKey key;
        {
            SpanGuard span(tracer, "serve", "resolve");
            key = resolveJob(jobs[i]).cacheKey();
        }
        std::optional<std::string> payload;
        {
            SpanGuard span(tracer, "explore", "cache_store.fetch");
            payload = store.fetch(key);
        }
        SNAIL_REQUIRE(payload.has_value(), "replay store lost a cached job");
        out[i] = renderReply(JsonValue(CacheStore::entryName(key)),
                             JsonValue::parse(*payload));
    });
    return out;
}

std::vector<RouteCheck>
checkReplayRoutes(const std::vector<ReplayedJob> &jobs, unsigned pool,
                  Tracer *tracer)
{
    std::vector<RouteCheck> checks(jobs.size());
    SpanGuard span(tracer, "bench", "check");
    parallelFor(jobs.size(), pool, [&](std::size_t i) {
        const ResolvedJob &job = *jobs[i].job;
        checks[i] = checkRoute(job.circuit, *jobs[i].result,
                               job.target.graph(), job.seed);
    });
    return checks;
}

double
sumResultMetric(const std::vector<std::string> &results,
                const std::string &metric)
{
    double total = 0.0;
    for (const std::string &text : results) {
        total += JsonValue::parse(text)
                     .at("result")
                     .at("metrics")
                     .at(metric)
                     .asNumber();
    }
    return total;
}

void
prefillStore(const std::string &store_dir, const std::string &scratch_dir,
             const std::vector<JobSpec> &jobs, unsigned pool)
{
    constexpr std::size_t kSlices = 32;
    parallelFor(kSlices, pool, [&](std::size_t slice) {
        CacheStore store(scratch_dir + "/slice-" + std::to_string(slice));
        for (std::size_t i = slice; i < jobs.size(); i += kSlices) {
            const ResolvedJob job = resolveJob(jobs[i]);
            store.store(job.cacheKey(),
                        serializeResult(job.pipeline.run(job.circuit,
                                                         job.target, job.seed)));
        }
    });
    fs::create_directories(store_dir);
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
        const fs::path dir = scratch_dir + "/slice-" + std::to_string(slice);
        for (const auto &entry : fs::directory_iterator(dir)) {
            fs::rename(entry.path(), fs::path(store_dir) / entry.path().filename());
        }
    }
    fs::remove_all(scratch_dir);
}

} // namespace bench
