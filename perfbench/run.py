#!/usr/bin/env python3
"""modop benchmark.

Runs one workload through ``modop.cli.main`` inside this process, one
command at a time (a closed loop with a single client), checks every
output against the structure planted in its inputs, and prints each
metric by name with its unit.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 perfbench/run.py --workload ladder-blockwise --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the traced run that yields the per-layer metrics.
``--workload all`` runs every workload both ways, each in a fresh
interpreter, one after another, and prints the combined tables.
BENCHMARK.json lists verify-small and ladder-blockwise; ladder-flat runs
by name or through ``all``.

Run from the root of a modop checkout: the package is imported from
``src/``.  Inputs are written under ``.bench_work/`` and removed at exit.
A run makes a fixed number of passes over the workload's commands,
``--seconds`` of them at the workload's nominal pass time, so that one
seed always gives the same commands.  A unit is one ``verify`` instance
or one other command; ``failed`` counts the units that exited nonzero,
reported a failure, or failed an output check, and each is listed.
``correct`` is false when the benchmark's own checks fail: the repeated
command gave different bytes, or too few commands ran for the p90 rule.
"""

import os

# BLAS is pinned to one thread before anything can import numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import arith
import coldstart
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("verify-small", "ladder-blockwise", "ladder-flat")

# name -> unit; the --trace 0 result carries exactly these.
E2E_METRICS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mib": "MiB",
    "cold_start_ms": "ms",
}

# Layers whose self time is nonzero on every workload BENCHMARK.json
# lists (verify-small and ladder-blockwise).  The others' self times
# (banach, probes, randgen) are printed in the table but left out of the
# result line, where a time reading 0 on every run of a workload would
# measure nothing.
PER_LAYER_TIMED = (
    "algebra", "modules", "subspace", "linmap", "fredholm", "drazin", "geometry", "serialize",
    "cli",
)
IMPORT_MODULES = ("modop.cli", "modop.linmap", "modop.modules", "modop.fredholm", "modop.drazin")

MIN_COMMANDS = 100  # so that at least ten samples lie beyond p90
MAX_MEASURE_S = 120  # no new pass starts after this much wall time
COLD_START_LAUNCHES = 25
SETUP_REPEATS = 5
IMPORTTIME_LAUNCHES = 3
MAX_LISTED_FAILURES = 40


def per_layer_metrics() -> dict[str, str]:
    """name -> unit; the --trace 1 result carries exactly these."""
    out = {f"{layer}.calls_per_op": "count" for layer in layers.LAYERS}
    out.update({f"{layer}.self_ms_per_op": "ms" for layer in PER_LAYER_TIMED})
    out.update(
        {
            "linalg.svd.calls_per_op": "count",
            "linalg.svd.matrices_per_op": "count",
            "linalg.svd.elements_per_op": "count",
            "linalg.svd.self_ms_per_op": "ms",
            "linalg.svd.distinct_ratio": "ratio",
            "linalg.other.calls_per_op": "count",
            "linalg.other.self_ms_per_op": "ms",
            "cli.pool.parallelism": "ratio",
            "trace.overhead_ratio": "ratio",
            "trace.coverage": "ratio",
        }
    )
    out.update({f"import.{module}.self_ms": "ms" for module in IMPORT_MODULES})
    out["import.numpy.cumulative_ms"] = "ms"
    out["import.modop.cumulative_ms"] = "ms"
    return out


# ---------------------------------------------------------------------------
# running commands


def invoke(main, argv: list[str]) -> tuple[int, str, str]:
    """Run ``main(argv)`` with captured output; a crash is exit -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the run goes on; the crash is a failed unit
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


class Tally:
    """Latencies, unit counts and failure messages of one run."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.integrity: list[str] = []

    def add(self, where: str, outcome: workloads.Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures.extend(f"{where}: {p}" for p in outcome.problems)


def provenance(seed: int) -> dict[str, object]:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "modop" / "cli.py").is_file():
        print(f"error: {SRC / 'modop'} not found; run from a modop checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    modop = importlib.import_module("modop")
    importlib.import_module("modop.cli")
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        return measure(modop, name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(modop, name: str, seed: int, seconds: int, trace: bool, workdir: Path) -> int:
    construct_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed, str(workdir))
        construct_s.append(time.perf_counter() - t0)

    tally = Tally()
    gen_s: list[float] = []
    pass_s: list[float] = []
    cold_ms: list[float] = []
    import_s: list[float] = []
    cold_argv = ["analyze", wl.cold_start_input, "--format", "json"]
    cold_cmd = workloads.Command("cold start analyze (2,3)/2", cold_argv, wl.cold_start_check)

    def launch_probes(made: int, planned: int) -> None:
        """Cold starts and fresh-interpreter imports, made between passes
        and spread evenly over the run so that they sample the machine
        state the commands see: ``made`` of ``planned`` passes are done."""
        while len(cold_ms) < -(-made * COLD_START_LAUNCHES // planned):
            elapsed_ms, result = coldstart.cold_start(str(SRC), str(ROOT), cold_argv)
            cold_ms.append(elapsed_ms)
            outcome = workloads.evaluate(cold_cmd, *result)
            tally.add(f"{cold_cmd.label} [launch {len(cold_ms)}]", outcome)
        while len(import_s) < -(-made * SETUP_REPEATS // planned):
            import_s.append(coldstart.import_seconds(str(SRC), str(ROOT), "modop.cli"))

    tracer = layers.Tracer() if trace else None
    uninstall = layers.install(tracer, modop) if trace else None
    traced_ns = untraced_ns = traced_verify_ns = 0
    traced_cmds = untraced_cmds = 0
    reference = None
    started = time.perf_counter()
    passes = 0
    planned = None
    try:
        while planned is None or passes < planned:
            g = time.perf_counter()
            cmds = wl.make_pass(passes)
            if planned is None:
                planned = arith.planned_passes(
                    seconds, wl.pass_seconds, len(cmds), MIN_COMMANDS, trace
                )
            gen_s.append(time.perf_counter() - g)
            # Traced runs: pass 0 warms up, then traced and untraced
            # passes alternate, ending on an untraced one.
            traced_pass = trace and passes % 2 == 1
            pass_ns = 0
            for cmd in cmds:
                if traced_pass:
                    tracer.begin_command()
                start = time.perf_counter_ns()
                # Looked up per call: a traced pass enters the wrapped main.
                code, out, err = invoke(modop.cli.main, cmd.argv)
                elapsed = time.perf_counter_ns() - start
                if traced_pass:
                    tracer.end_command()
                    traced_ns += elapsed
                    traced_cmds += 1
                    if cmd.verify:
                        traced_verify_ns += elapsed
                elif trace and passes > 0:
                    untraced_ns += elapsed
                    untraced_cmds += 1
                pass_ns += elapsed
                tally.latencies_ms.append(elapsed / 1e6)
                tally.by_label.setdefault(cmd.label.split(" --seed")[0], []).append(elapsed / 1e6)
                tally.add(f"{cmd.label} [pass {passes}]", workloads.evaluate(cmd, code, out, err))
                if reference is None:
                    reference = (cmd, code, out)
            passes += 1
            pass_s.append(pass_ns / 1e9)
            if not trace:
                launch_probes(passes, planned)
            if passes < planned and time.perf_counter() - started > MAX_MEASURE_S:
                print(f"note: {MAX_MEASURE_S} s cap reached after {passes} of {planned} passes")
                break
    finally:
        if uninstall is not None:
            uninstall()

    # Determinism: the first command again, outside the timed window.
    cmd, code, out = reference
    if invoke(modop.cli.main, cmd.argv)[:2] != (code, out):
        tally.integrity.append(f"repeat of '{cmd.label}' gave different bytes")

    if trace:
        imports = coldstart.import_times(str(SRC), str(ROOT), "modop.cli", IMPORTTIME_LAUNCHES)
        metrics, extra = layer_metrics(
            tracer, traced_cmds, traced_ns, untraced_cmds, untraced_ns, traced_verify_ns, imports
        )
    else:
        launch_probes(1, 1)
        lat = tally.latencies_ms
        try:
            p90 = arith.p90(lat)
        except ValueError as exc:
            tally.integrity.append(str(exc))
            p90 = arith.nearest_rank(lat, 0.9)
        metrics = {
            # Import, then input generation: each repeated, each a median.
            "setup_s": (
                arith.median(import_s) + arith.median(construct_s) + arith.median(gen_s), "s"
            ),
            # Every pass runs the same command mix; the median pass is
            # robust to a slow stretch of the machine.
            "ops_per_s": (len(cmds) / arith.median(pass_s), "1/s"),
            "op_ms_p50": (arith.median(lat), "ms"),
            "op_ms_p90": (p90, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "cold_start_ms": (arith.median(cold_ms), "ms"),
        }
        extra = {"failed_ratio": (tally.failed / tally.attempted, "ratio")}

    report(name, seed, trace, tally, passes, metrics, extra, tracer)
    result = {
        "correct": not tally.integrity,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, ops, traced_ns, untraced_ops, untraced_ns, verify_ns, imports):
    """(result metrics, table-only metrics) of a traced run, name -> (value, unit)."""
    found: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        found[f"{layer}.calls_per_op"] = (tracer.layer_calls[layer] / ops, "count")
        found[f"{layer}.self_ms_per_op"] = (tracer.layer_self_ns[layer] / 1e6 / ops, "ms")
    svd_calls = tracer.svd_calls
    found["linalg.svd.calls_per_op"] = (svd_calls / ops, "count")
    found["linalg.svd.matrices_per_op"] = (tracer.svd_matrices / ops, "count")
    found["linalg.svd.elements_per_op"] = (tracer.svd_elements / ops, "count")
    found["linalg.svd.self_ms_per_op"] = (tracer.svd_self_ns / 1e6 / ops, "ms")
    distinct = len(tracer.svd_keys) / svd_calls if svd_calls else 1.0
    found["linalg.svd.distinct_ratio"] = (distinct, "ratio")
    found["linalg.other.calls_per_op"] = (tracer.other_calls / ops, "count")
    found["linalg.other.self_ms_per_op"] = (tracer.other_self_ns / 1e6 / ops, "ms")
    for suite in workloads.SUITE_NAMES:
        n = tracer.suite_instances[suite]
        per = tracer.suite_ns[suite] / 1e6 / n if n else 0.0
        found[f"cli.verify.{suite}.ms_per_instance"] = (per, "ms")
    # Instance-span time over verify wall time: how many instances the
    # pool keeps in flight at once.
    parallelism = sum(tracer.suite_ns.values()) / verify_ns if verify_ns else 0.0
    found["cli.pool.parallelism"] = (parallelism, "ratio")
    found["trace.overhead_ratio"] = ((traced_ns / ops) / (untraced_ns / untraced_ops), "ratio")
    found["trace.coverage"] = (tracer.root_ns / traced_ns, "ratio")
    for module, (self_ms, cum_ms) in imports.items():
        if module.startswith("modop") or module == "numpy":
            found[f"import.{module}.self_ms"] = (self_ms, "ms")
            found[f"import.{module}.cumulative_ms"] = (cum_ms, "ms")
    wanted = per_layer_metrics()
    metrics = {k: found[k] for k in wanted}
    extra = {k: v for k, v in found.items() if k not in wanted}
    return metrics, extra


def report(name, seed, trace, tally, passes, metrics, extra, tracer) -> None:
    print(f"== modop benchmark: workload {name}, seed {seed}, trace {int(trace)}")
    print("provenance: " + ", ".join(f"{k} {v}" for k, v in provenance(seed).items()))
    print(
        f"commands: {len(tally.latencies_ms)} in {passes} passes; units attempted "
        f"{tally.attempted}, failed {tally.failed}"
    )
    if tally.failures:
        print(f"failing units ({len(tally.failures)}):")
        for line in tally.failures[:MAX_LISTED_FAILURES]:
            print(f"  {line}")
        if len(tally.failures) > MAX_LISTED_FAILURES:
            print(f"  ... {len(tally.failures) - MAX_LISTED_FAILURES} more")
    for line in tally.integrity:
        print(f"integrity: {line}")
    if trace:
        print("slowest callables by self time:")
        ranked = sorted(tracer.callable_self_ns.items(), key=lambda kv: -kv[1])[:15]
        for callable_name, ns in ranked:
            calls = tracer.callable_calls[callable_name]
            print(f"  {ns / 1e6:10.1f} ms  {calls:8d} calls  {callable_name}")
    else:
        print("per-command median latency:")
        for label, values in tally.by_label.items():
            print(f"  {arith.median(values):10.2f} ms  x{len(values):<4d} {label}")
    print("metrics:")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"  {key:44s} {value:14.6g} {unit}")


# ---------------------------------------------------------------------------
# every workload


def run_all(seed: int, seconds: int) -> int:
    if not (SRC / "modop" / "cli.py").is_file():
        print(f"error: {SRC / 'modop'} not found; run from a modop checkout", file=sys.stderr)
        return 2
    combined: dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            combined[f"{name} trace {trace}"] = json.loads(lines[-1])
    print("== summary")
    for key, res in combined.items():
        print(f"{key}: correct {res['correct']}, attempted {res['attempted']}, failed {res['failed']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:44s} {mv['value']:14.6g} {mv['unit']}")
    total = {
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": {
            f"{key.replace(' trace ', '.trace')}.{m}": mv
            for key, res in combined.items()
            for m, mv in res["metrics"].items()
        },
    }
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=int, default=35, help="seconds of passes per run at the nominal pass time"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
