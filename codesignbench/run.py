#!/usr/bin/env python3
"""The co-design benchmark: build snailqc from source, run one workload.

Usage, from the root of a checkout:

    python3 codesignbench/run.py --workload fig13-sweep --seed 7 --trace 0
    python3 codesignbench/run.py --workload all      # every workload

--seconds defaults to run_seconds in BENCHMARK.json, the run length the
metric bounds there were set for.

Workloads (see METRICS.md for why each one is here):

    fig13-sweep      paper-fig13 spec, 252 points, a fresh seed per sweep
    fig14-sweep      the five 84-qubit Fig. 14 machines x six benchmarks
                     at widths 16/40/64, 90 points per sweep
    kiloqubit-route  QV-64 on chiplet-4096, dense + sabre-route
    serve-store      a live daemon on a UNIX socket over a cache store
                     holding 2016 entries; one closed-loop client

The first run configures and builds codesignbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, or .bench_build when unset.
Each workload runs in its own process with a fixed pool of
min(4, nproc) threads; the library's SNAILQC_* environment variables
are recorded and cleared first.  --trace 0 prints the end-to-end
metrics; --trace 1 prints the per-layer metrics, writes a Chrome trace
(checked with tools/trace_lint.py) and a per-layer self-time table.
Every run also writes its full report (host calibration, fingerprint,
checks, layer table) to <build dir>/runs/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit status is 0 whenever that line is printed, and non-zero, with
no result, when the program cannot be built or run.
"""

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("fig13-sweep", "fig14-sweep", "kiloqubit-route", "serve-store")
DEFAULT_SEED = 20230225  # must match kDefaultSeed in src/bench.hpp
LIBRARY_ENV = (
    "SNAILQC_POOL_SIZE",
    "SNAILQC_DISTANCE_ORACLE",
    "SNAILQC_CACHE_DIR",
    "SNAILQC_SOCKET",
)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(root):
    """Configure on first use, then bring the binary up to date."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake is not installed")
    build_dir = os.path.join(root, "codesignbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        [cmake, "--build", build_dir, "--target", "codesign_bench", "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(build_dir, "codesign_bench")


def lint_trace(path):
    """Violations tools/trace_lint.py finds in the trace (None: no linter)."""
    linter = os.path.join(REPO, "tools", "trace_lint.py")
    if not os.path.exists(linter):
        return None
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    spec = importlib.util.spec_from_file_location("trace_lint", linter)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(path) as handle:
        doc = json.load(handle)
    return module.lint(doc, ["transpiler", "bench"])


def benchmark_doc():
    """BENCHMARK.json at the root of the checkout (None: absent)."""
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    doc = benchmark_doc()
    if doc is None:
        return None
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_workload(binary, root, workload, seed, seconds, trace):
    """Run one workload in its own process; return its checked report."""
    runs = os.path.join(root, "runs")
    work_parent = os.path.join(root, "work")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(work_parent, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    trace_file = os.path.join(runs, stem + ".trace.json")

    env = dict(os.environ)
    recorded_env = {name: env.pop(name, None) for name in LIBRARY_ENV}
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_parent)
    command = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--bench-dir", HERE,
        "--work-dir", work_dir,
    ]
    if trace:
        command += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
            check=False,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: benchmark exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["runner_env"] = recorded_env

    problems = []
    declared = declared_metrics(trace)
    if declared is not None and declared != set(report["metrics"]):
        problems.append(
            "metric names differ from BENCHMARK.json: "
            + ", ".join(sorted(declared ^ set(report["metrics"])))
        )
    if trace:
        violations = lint_trace(trace_file)
        report["trace_lint"] = violations
        if violations:
            problems.append("trace_lint: " + "; ".join(violations[:3]))
    if problems:
        # A failed artifact check is one more failed operation.
        report["attempted"] += 1
        report["failed"] += 1
        report["correct"] = False
        report["ledger"]["failures"].extend(problems)

    with open(os.path.join(runs, stem + ".json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    return report


def print_report(report):
    host = report["host"]
    print(
        f"== {report['workload']}  seed {report['seed']}  "
        f"trace {int(report['trace'])}  pool {host['pool']:g} of "
        f"{host['nproc']:g} cores  build {host['git_sha']} "
        f"({host['build_type']})"
    )
    print(
        f"   host calibration: kernel {host['calibration_kernel_ms']:.3f} ms, "
        f"parallelism {host['calibration_parallelism']:.2f}; library env "
        f"{json.dumps(report['runner_env'])}"
    )
    for group in ("metrics", "extra"):
        for name, metric in sorted(report[group].items()):
            print(f"   {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"   ops attempted {report['attempted']:g}, failed {report['failed']:g}"
        f"  -> correct={report['correct']}"
    )
    for failure in report["ledger"]["failures"]:
        print(f"   FAILED {failure}")
    if report["trace"]:
        wall = report["wall"]
        print(
            f"   wall: untraced {wall['untraced_ms']:.1f} ms, traced "
            f"{wall['traced_ms']:.1f} ms (same operations)"
        )
        print(f"   {'layer':12s} {'span':22s} {'self ms':>10s} {'calls':>7s} share")
        for row in report["layers"]:
            print(
                f"   {row['layer']:12s} {row['name']:22s} {row['self_ms']:10.1f}"
                f" {row['calls']:7g} {row['share']:.3f}"
            )


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        doc = benchmark_doc()
        if doc is None:
            parser.error("--seconds is needed when BENCHMARK.json is absent")
        args.seconds = float(doc["run_seconds"])

    root = build_root()
    try:
        binary = build(root)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [
            run_workload(binary, root, w, args.seed, args.seconds, bool(args.trace))
            for w in workloads
        ]
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as error:
        log(f"codesignbench: {error}")
        return 1

    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric
            for r in reports
            for name, metric in r["metrics"].items()
        }
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": int(sum(r["attempted"] for r in reports)),
        "failed": int(sum(r["failed"] for r in reports)),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
