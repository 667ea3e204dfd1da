#!/usr/bin/env python3
"""Run the perfbench workloads in parent/change pairs and write BENCH_<label>.json.

The parent is a commit, exported with ``git archive`` under
``.bench_build/``; the change is this checkout.  Pair i runs
``perfbench/run.py --workload <w> --seed <s_i> --seconds <S> --trace 0``
(S the ``run_seconds`` of ``BENCHMARK.json``) once in each tree, each
side with its own ``perfbench/``, and alternates which side runs first
(the parent in even pairs, counting from 0), so an order effect on a
shared machine falls on both sides alike.  Before every run the
``__pycache__`` folders of ``src/modop/`` and ``perfbench/`` are removed
from both trees, so both start from the same bytecode-cache state: the
export has none, and stale files in the checkout would spare it the
compilation that the fresh-interpreter metrics (``cold_start_ms``, and
the import inside ``setup_s``) pay on the other side.

For every end-to-end metric of ``BENCHMARK.json`` the file holds the
per-pair values of both sides, their medians and inclusive quartiles,
the parent's interquartile range, ``median_gap`` (the change's median
gain in the metric's better direction; negative when worse),
``change_over_parent`` and ``better_pairs`` (pairs in which the change
read strictly better).  Failed and attempted units and the benchmark's
``correct`` flag are kept per pair.

    python3 scripts/bench_pairs.py --parent HEAD --workload verify-small \\
        --workload ladder-blockwise --seeds 51-60 --label pr11

Progress goes to standard error, one line per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from _export import ROOT, commit_of, export

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def clear_bytecode(tree: Path) -> None:
    """Remove the bytecode caches that a run of ``tree`` reads."""
    for package in ("src/modop", "perfbench"):
        shutil.rmtree(tree / package / "__pycache__", ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    clear_bytecode(tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(metric: str, unit: str, parent: list[float], change: list[float]) -> dict:
    better = BETTER[metric]
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = statistics.quantiles(parent, n=4, method="inclusive")
    cq = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return {
        "unit": unit,
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "parent_quartiles": [round(pq[0], 4), round(pq[2], 4)],
        "change_quartiles": [round(cq[0], 4), round(cq[2], 4)],
        "parent_iqr": round(pq[2] - pq[0], 4),
        "median_gap": round(sign * (cm - pm), 4),
        "change_over_parent": round(cm / pm, 3) if pm else None,
        "better_pairs": f"{wins}/{len(parent)}",
    }


def run_workload(trees: dict[str, Path], workload: str, seeds: list[int]) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    first = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            res = run_once(trees[side], workload, seed)
            runs[side].append(res)
            print(f"{workload} seed {seed} {side}: ops_per_s "
                  f"{res['metrics']['ops_per_s']['value']:.3f}, failed {res['failed']}",
                  file=sys.stderr, flush=True)
    names = list(runs["parent"][0]["metrics"])
    return {
        "seeds": seeds,
        "first_in_pair": first,
        "metrics": {
            name: summary(
                name,
                runs["parent"][0]["metrics"][name]["unit"],
                *([round(r["metrics"][name]["value"], 4) for r in runs[side]]
                  for side in ("parent", "change")),
            )
            for name in names
        },
        "failed_units": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "attempted_units": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against, e.g. HEAD")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--seeds", required=True, help="seed range a-b, one pair per seed")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    trees = {"parent": export(args.parent), "change": ROOT}
    payload = {
        "label": args.label,
        "parent": commit_of(args.parent)[:7],
        "change": f"checkout on {commit_of('HEAD')[:7]}",
        "hardware": (
            f"{os.cpu_count()} CPUs ({platform.machine()}); Python {platform.python_version()}, "
            f"numpy {np.__version__} with {blas['name']} {blas['version']}, "
            "OPENBLAS_NUM_THREADS=1"
        ),
        "perfbench": {
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                       f"{SECONDS} --trace 0, in each tree with its own perfbench/",
            "method": (
                f"{len(seeds)} parent/change pairs per workload at seeds {args.seeds}, "
                "alternating which side runs first (first_in_pair); the src/modop and "
                "perfbench __pycache__ folders of both trees removed before every run; "
                "medians and inclusive "
                "quartiles over each side's runs; median_gap is the change's median gain in "
                "the metric's better direction; better_pairs counts the pairs in which the "
                "change read better; parent_iqr is the distance between the parent's quartiles"
            ),
            "workloads": {
                w: run_workload(trees, w, seeds) for w in args.workload
            },
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
