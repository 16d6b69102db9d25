#include "driver.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "sim/equivalence.hpp"
#include "transpiler/pass_registry.hpp"
#include "transpiler/passes.hpp"

namespace bench
{

using namespace snail;

TranspileResult
runPassByPass(const Circuit &circuit, const Target &target,
              const PassManager &pipeline, unsigned long long seed,
              Tracer *tracer)
{
    PassContext ctx(circuit, target, seed);
    for (const auto &pass : pipeline.passes()) {
        SpanGuard span(tracer, "transpiler", pass->name());
        pass->run(ctx);
    }
    // PassManager scores implicitly when no pass published metrics.
    if (!ctx.properties.contains("scored")) {
        SpanGuard span(tracer, "transpiler", "score");
        ScoreMetricsPass().run(ctx);
    }

    Layout initial = ctx.initial_layout
                         ? std::move(*ctx.initial_layout)
                         : trivialLayout(ctx.circuit, ctx.graph);
    Layout final_layout =
        ctx.final_layout ? std::move(*ctx.final_layout) : initial;
    TranspileResult result(std::move(ctx.circuit), std::move(initial),
                           std::move(final_layout));
    const PropertySet &props = ctx.properties;
    TranspileMetrics &m = result.metrics;
    m.swaps_total = static_cast<std::size_t>(props.get("swaps_total"));
    m.swaps_critical = props.get("swaps_critical");
    m.ops_2q_pre = static_cast<std::size_t>(props.get("ops_2q_pre"));
    m.basis_2q_total = static_cast<std::size_t>(props.get("basis_2q_total"));
    m.basis_2q_critical = props.get("basis_2q_critical");
    m.duration_total = props.get("duration_total");
    m.duration_critical = props.get("duration_critical");
    result.properties = std::move(ctx.properties);
    return result;
}

PointMetrics
pointMetricsOf(const TranspileResult &result)
{
    PointMetrics point;
    point.metrics = result.metrics;
    if (result.properties.contains("fidelity_predicted")) {
        point.fidelity_predicted = result.properties.get("fidelity_predicted");
        point.has_fidelity = true;
    }
    return point;
}

namespace
{

bool
sameTranspileMetrics(const TranspileMetrics &a, const TranspileMetrics &b)
{
    return a.swaps_total == b.swaps_total &&
           a.swaps_critical == b.swaps_critical &&
           a.ops_2q_pre == b.ops_2q_pre &&
           a.basis_2q_total == b.basis_2q_total &&
           a.basis_2q_critical == b.basis_2q_critical &&
           a.duration_total == b.duration_total &&
           a.duration_critical == b.duration_critical;
}

} // namespace

bool
sameMetrics(const PointMetrics &a, const PointMetrics &b)
{
    return sameTranspileMetrics(a.metrics, b.metrics) &&
           a.has_fidelity == b.has_fidelity &&
           a.fidelity_predicted == b.fidelity_predicted;
}

bool
sameResult(const TranspileResult &a, const TranspileResult &b,
           std::string *why)
{
    const char *problem = nullptr;
    if (!sameTranspileMetrics(a.metrics, b.metrics)) {
        problem = "metrics differ";
    } else if (a.properties.all() != b.properties.all()) {
        problem = "published properties differ";
    } else if (a.routed.contentHash() != b.routed.contentHash()) {
        problem = "routed circuits differ";
    } else if (a.initial_layout.v2p() != b.initial_layout.v2p()) {
        problem = "initial layouts differ";
    } else if (a.final_layout.v2p() != b.final_layout.v2p()) {
        problem = "final layouts differ";
    }
    if (problem && why) {
        *why = problem;
    }
    return problem == nullptr;
}

Expansion
expand(const SweepSpec &spec, Tracer *tracer)
{
    Expansion e;
    {
        SpanGuard all(tracer, "explore", "expand");
        {
            SpanGuard span(tracer, "explore", "expand_targets");
            e.targets = expandTargets(spec);
        }
        int max_width = 0;
        for (const Target &target : e.targets) {
            max_width = std::max(max_width, target.numQubits());
        }
        {
            SpanGuard span(tracer, "circuits", "generate");
            e.circuits = expandCircuits(spec, max_width);
        }
        {
            SpanGuard span(tracer, "explore", "expand_points");
            e.points = expandSweepPoints(spec, e.circuits, e.targets);
        }
        SpanGuard span(tracer, "explore", "pipelines");
        for (const std::string &pipeline : spec.pipelines) {
            e.pipelines.push_back(passManagerFromSpec(pipeline));
        }
    }
    SpanGuard span(tracer, "topology", "oracle_build");
    for (const Target &target : e.targets) {
        target.graph().ensureDistanceOracle();
        e.oracle_bytes +=
            static_cast<double>(target.graph().distanceOracle().memoryBytes());
    }
    return e;
}

RouteCheck
checkRoute(const Circuit &original, const TranspileResult &result,
           const CouplingGraph &graph, unsigned long long seed)
{
    RouteCheck check;
    for (const Instruction &inst : result.routed.instructions()) {
        if (inst.isTwoQubit() && !graph.hasEdge(inst.q0(), inst.q1())) {
            check.edges_ok = false;
            check.edge_detail = inst.toString() + " is not on a coupled edge of " +
                                graph.name();
            break;
        }
    }
    if (original.numQubits() > 10) {
        return check;
    }

    // Idle physical qubits stay |0> spectators, so simulating only the
    // qubits the route touches is exact and keeps the state small.
    std::vector<int> initial = result.initial_layout.v2p();
    std::vector<int> final_v2p = result.final_layout.v2p();
    std::vector<int> index(static_cast<std::size_t>(result.routed.numQubits()),
                           -1);
    int used = 0;
    auto use = [&](int q) {
        if (index[static_cast<std::size_t>(q)] < 0) {
            index[static_cast<std::size_t>(q)] = used++;
        }
    };
    for (int q : initial) {
        use(q);
    }
    for (int q : final_v2p) {
        use(q);
    }
    for (const Instruction &inst : result.routed.instructions()) {
        for (int q : inst.qubits()) {
            use(q);
        }
    }
    if (used > kMaxSimulatedQubits) {
        check.equivalence = RouteCheck::Equivalence::TooWide;
        return check;
    }
    Circuit compact(used);
    for (const Instruction &inst : result.routed.instructions()) {
        std::vector<Qubit> qubits;
        for (int q : inst.qubits()) {
            qubits.push_back(index[static_cast<std::size_t>(q)]);
        }
        compact.append(inst.remapped(qubits));
    }
    for (int &q : initial) {
        q = index[static_cast<std::size_t>(q)];
    }
    for (int &q : final_v2p) {
        q = index[static_cast<std::size_t>(q)];
    }
    Rng rng(seed);
    check.equivalence =
        routedCircuitEquivalent(original, compact, initial, final_v2p, 2, rng)
            ? RouteCheck::Equivalence::Pass
            : RouteCheck::Equivalence::Fail;
    return check;
}

void
recordRouteChecks(Ledger &ledger, const std::vector<RouteCheck> &checks,
                  JsonValue::Object &info)
{
    double verified = 0.0;
    double skipped = 0.0;
    for (const RouteCheck &check : checks) {
        ledger.check("route.coupled_edges", check.edges_ok, check.edge_detail);
        switch (check.equivalence) {
        case RouteCheck::Equivalence::Pass:
            verified += 1.0;
            ledger.check("route.equivalent", true);
            break;
        case RouteCheck::Equivalence::Fail:
            ledger.check("route.equivalent", false,
                         "routed circuit does not implement its input");
            break;
        case RouteCheck::Equivalence::TooWide:
            ledger.check("route.equivalent", false,
                         "a width <= 10 route touches more qubits than the "
                         "equivalence check simulates");
            break;
        case RouteCheck::Equivalence::Skipped:
            skipped += 1.0;
            break;
        }
    }
    auto bump = [&](const char *key, double by) {
        const auto it = info.find(key);
        info[key] = JsonValue((it == info.end() ? 0.0 : it->second.asNumber()) + by);
    };
    bump("routes_simulated", verified);
    bump("routes_not_simulated", skipped);
}

TracedSweep
tracedSweep(const SweepSpec &spec, unsigned pool, Tracer *tracer)
{
    TracedSweep sweep;
    sweep.expansion = expand(spec, tracer);
    const Expansion &e = sweep.expansion;
    sweep.results.resize(e.points.size());
    tracedFanOut(e.points.size(), pool, tracer, "job", [&](std::size_t i) {
        const SweepPoint &point = e.points[i];
        sweep.results[i] = runPassByPass(
            e.circuits[point.circuit_index].circuit, e.targets[point.target_index],
            e.pipelines[point.pipeline_index], point.seed, tracer);
    });
    return sweep;
}

std::vector<RouteCheck>
checkSweepRoutes(const TracedSweep &sweep, unsigned pool, Tracer *tracer)
{
    const Expansion &e = sweep.expansion;
    std::vector<RouteCheck> checks(e.points.size());
    SpanGuard span(tracer, "bench", "check");
    parallelFor(e.points.size(), pool, [&](std::size_t i) {
        const SweepPoint &point = e.points[i];
        checks[i] = checkRoute(e.circuits[point.circuit_index].circuit,
                               *sweep.results[i],
                               e.targets[point.target_index].graph(), point.seed);
    });
    return checks;
}

} // namespace bench
