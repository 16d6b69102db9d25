/**
 * @file
 * The four workloads and the self-test probe.
 *
 * Every workload follows one shape: set-up repeated a few times (the
 * median is setup_s), one untimed reference operation on the default
 * seed whose summed counts must equal the committed expected values,
 * then operations in a closed loop until the run's time is up.  An
 * untraced run times the public entry points; a traced run issues each
 * operation twice, untraced and through the traced twin, and checks
 * that the two agree bit for bit.
 */

#ifndef CODESIGNBENCH_WORKLOADS_HPP
#define CODESIGNBENCH_WORKLOADS_HPP

#include <string>

#include "bench.hpp"

namespace bench
{

/** fig13-sweep / fig14-sweep: runSweep over a committed spec. */
void runSweepWorkload(const Options &options, const std::string &spec_file,
                      Ledger &ledger, Tracer *tracer, RunResult &run);

/** kiloqubit-route: QV-64 on chiplet-4096, PassManager::run serially. */
void runKiloqubitRoute(const Options &options, Ledger &ledger,
                       Tracer *tracer, RunResult &run);

/** serve-store: a live daemon over a filled cache store. */
void runServeStore(const Options &options, Ledger &ledger, Tracer *tracer,
                   RunResult &run);

/**
 * Self-test, run at the end of every traced run: on a tiny spec the
 * traced twin reproduces runSweep and PassManager::run exactly, and a
 * one-batch socket round trip reproduces in-process Service::handle.
 * Its spans stand in for layers the workload never calls.
 */
void runProbe(const Options &options, Ledger &ledger, Tracer &tracer,
              RunResult &run);

} // namespace bench

#endif // CODESIGNBENCH_WORKLOADS_HPP
