/**
 * @file
 * The traced twin of the library's entry points, and the output
 * checks.
 *
 * runPassByPass() repeats PassManager::run one Pass::run at a time, so
 * the benchmark can time each pass from its own code.  expand() repeats
 * runSweep's expansion (expandTargets, expandCircuits,
 * expandSweepPoints, passManagerFromSpec, oracle build) with a span per
 * call.  Both must reproduce the untraced results bit for bit; the
 * workloads check that they do.
 */

#ifndef CODESIGNBENCH_DRIVER_HPP
#define CODESIGNBENCH_DRIVER_HPP

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "explore/engine.hpp"
#include "transpiler/pass_manager.hpp"

namespace bench
{

/** PassManager::run, one pass at a time, a span per pass. */
snail::TranspileResult runPassByPass(const snail::Circuit &circuit,
                                     const snail::Target &target,
                                     const snail::PassManager &pipeline,
                                     unsigned long long seed, Tracer *tracer);

/** The per-point metrics the engine extracts from a result. */
snail::PointMetrics pointMetricsOf(const snail::TranspileResult &result);

/** Exact equality of engine per-point metrics. */
bool sameMetrics(const snail::PointMetrics &a, const snail::PointMetrics &b);

/**
 * Exact equality of two transpile results: metrics, published
 * properties, routed-circuit content hash, both layouts.
 */
bool sameResult(const snail::TranspileResult &a,
                const snail::TranspileResult &b, std::string *why);

/** A sweep spec expanded the way runSweep expands it. */
struct Expansion
{
    std::vector<snail::Target> targets;
    std::vector<snail::CircuitInstance> circuits;
    std::vector<snail::PassManager> pipelines;
    std::vector<snail::SweepPoint> points;
    double oracle_bytes = 0.0; //!< summed over the targets
};

/** Expand `spec` with a span per library call (tracer may be null). */
Expansion expand(const snail::SweepSpec &spec, Tracer *tracer);

/**
 * Run body(i) for every i on the pool, inside a "common/parallel_for"
 * span, each call inside a "bench/<job>" span.  The "bench/job" spans
 * are the transpile jobs scheduler.speedup sums.
 */
template <typename Body>
void
tracedFanOut(std::size_t count, unsigned pool, Tracer *tracer,
             const char *job, Body &&body)
{
    SpanGuard span(tracer, "common", "parallel_for");
    snail::parallelFor(count, pool, [&](std::size_t i) {
        SpanGuard guard(tracer, "bench", job);
        body(i);
    });
}

/** Widest register routedCircuitEquivalent simulates. */
constexpr int kMaxSimulatedQubits = 20;

/** Outcome of the structural checks on one routed circuit. */
struct RouteCheck
{
    bool edges_ok = true;
    std::string edge_detail;
    enum class Equivalence
    {
        Pass,
        Fail,
        Skipped, //!< input wider than 10 qubits: not simulated
        TooWide, //!< width <= 10, but the route touches too many qubits
    } equivalence = Equivalence::Skipped;
};

/**
 * Every 2Q op on a coupled edge of `graph`; for inputs of width <= 10,
 * routedCircuitEquivalent on the physical qubits the route touches.  A
 * width <= 10 route touching more than kMaxSimulatedQubits is TooWide,
 * which recordRouteChecks counts as a failed check.
 */
RouteCheck checkRoute(const snail::Circuit &original,
                      const snail::TranspileResult &result,
                      const snail::CouplingGraph &graph,
                      unsigned long long seed);

/** Record a batch of route checks in the ledger. */
void recordRouteChecks(Ledger &ledger, const std::vector<RouteCheck> &checks,
                       snail::JsonValue::Object &info);

/** A transpile result of a traced sweep, with what checkRoute needs. */
struct TracedSweep
{
    Expansion expansion;
    std::vector<std::optional<snail::TranspileResult>> results;
};

/** runSweep's traced twin: expand, then every point pass by pass. */
TracedSweep tracedSweep(const snail::SweepSpec &spec, unsigned pool,
                        Tracer *tracer);

/** Structural checks over every point of a traced sweep, on the pool. */
std::vector<RouteCheck> checkSweepRoutes(const TracedSweep &sweep,
                                         unsigned pool, Tracer *tracer);

} // namespace bench

#endif // CODESIGNBENCH_DRIVER_HPP
