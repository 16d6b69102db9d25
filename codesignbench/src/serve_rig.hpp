/**
 * @file
 * The serving half of the benchmark: an in-process `Server` on a UNIX
 * socket in a private directory, one `Client` connection, job lists in
 * the wire schema, and the traced replay of what Service does per job
 * (resolve, store fetch, passes, serialize, store write).
 */

#ifndef CODESIGNBENCH_SERVE_RIG_HPP
#define CODESIGNBENCH_SERVE_RIG_HPP

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "driver.hpp"
#include "explore/cache_store.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"

namespace bench
{

/** A live daemon: Server thread plus one connected Client. */
class Daemon
{
  public:
    /**
     * Open the store, bind `socket` (relative to the working directory,
     * which keeps the path short), connect and answer one ping.
     * @throws std::exception when the daemon does not come up.
     */
    Daemon(const std::string &socket, const std::string &store_dir,
           unsigned long long max_bytes, unsigned pool);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    snail::Client &client() { return *_client; }

  private:
    void stop();

    std::unique_ptr<snail::Server> _server;
    std::unique_ptr<snail::Client> _client;
    std::string _error; //!< what serve() threw, if anything
    std::atomic<bool> _down{false}; //!< serve() returned
    std::thread _thread; //!< runs _server->serve()
};

/** Options every in-process Service of the benchmark shares. */
snail::ServiceOptions serviceOptions(const std::string &store_dir,
                                     unsigned long long max_bytes,
                                     unsigned pool);

/** Fig. 13-sized (benchmark, width, target, pipeline) combinations. */
std::vector<snail::JobSpec> jobUniverse(const snail::SweepSpec &spec,
                                        Tracer *tracer, double *oracle_bytes);

/** {"op":"batch","jobs":[...]} */
snail::JsonValue batchRequest(const std::vector<snail::JobSpec> &jobs);

/**
 * Check a batch reply (ok, one result per job, every `cached` flag as
 * expected) and return each job's {"key","result"} rendered as text.
 */
std::vector<std::string> batchResults(Ledger &ledger, const std::string &what,
                                      const snail::JsonValue &reply,
                                      std::size_t jobs, bool expect_cached);

/** One job replayed the way Service::runJob runs it. */
struct ReplayedJob
{
    std::optional<snail::ResolvedJob> job;
    std::optional<snail::TranspileResult> result;
    std::string reply; //!< {"key","result"} as the wire renders it
};

/**
 * Replay never-seen jobs against `store` on the pool: resolve, fetch
 * (a miss), passes one by one, serialize, store.  Spans on each call.
 */
std::vector<ReplayedJob> replayCold(const std::vector<snail::JobSpec> &jobs,
                                    snail::CacheStore &store, unsigned pool,
                                    Tracer *tracer);

/** Replay cached jobs: resolve and fetch (a hit); returns the replies. */
std::vector<std::string> replayWarm(const std::vector<snail::JobSpec> &jobs,
                                    snail::CacheStore &store, unsigned pool,
                                    Tracer *tracer);

/** Route checks of replayed cold jobs, on the pool. */
std::vector<RouteCheck> checkReplayRoutes(const std::vector<ReplayedJob> &jobs,
                                          unsigned pool, Tracer *tracer);

/** Sum of a reply field over the per-job results of a batch. */
double sumResultMetric(const std::vector<std::string> &results,
                       const std::string &metric);

/**
 * Fill `store_dir` with valid entries for `jobs` without paying the
 * store's per-write directory rescan on a large directory: each pool
 * task writes its slice into a small store of its own, and the entry
 * files are then moved into place.
 */
void prefillStore(const std::string &store_dir, const std::string &scratch_dir,
                  const std::vector<snail::JobSpec> &jobs, unsigned pool);

} // namespace bench

#endif // CODESIGNBENCH_SERVE_RIG_HPP
