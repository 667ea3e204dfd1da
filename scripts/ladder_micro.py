"""Size-ladder micro-benchmark of certificates, the power chain, generation, file I/O and banach.

Times ``fredholm_report``, ``exact_sequence``, ``drazin_inverse``,
``b_fredholm_report`` and ``power_chain`` (the index and the stable
image of the planted endomorphism: both staircases) on maps built
before the clock starts, along the ladder (2,3)/2, (16)/4, 1^32/4 and
1^256/4 (algebra shape / module rank).  Each repetition runs on a fresh
copy of its maps, so no cached spectral record or power chain
carries over from one repetition to the next.  ``closed_sum_report`` is
timed on a random submodule pair at (1)/25 and at (2,3)/2 twice: with
10,000 sampled pairs, as the ``geometry`` command runs it
(``closed_sum_report``), and with ``samples=0``, as the closed-sum suite
runs it (``closed_sum_report_unsampled``).  ``commuting_drazin_criterion``
is timed on commuting pairs (1)/24, (1)/48 and (1)/96 with a planted
nilpotent part of index 3, the pairs the ladder-blockwise benchmark
analyzes, fresh copies per repetition.  ``load_operator`` times the I/O
layer beside them: ``serialize.load_operator`` reading each rung's planted
endomorphism (F of each commuting pair) from the operator file ``modop
analyze`` would read, written before the clock starts, and
``load_submodule`` times ``serialize.load_submodule`` on a random 1^64/4
submodule of column rank 2 per block, the file ``modop geometry`` would
read; ``write_operator`` times ``serialize.operator_to_jsonable`` on the
same endomorphism (on F of each commuting pair), and ``write_submodule``
times ``serialize.submodule_to_jsonable`` on that submodule.
``generate`` times the random instances themselves: each rung's ``random_endomorphism`` plus one ``random_map`` (each
commuting pair's ``random_commuting_pair``), on a fresh generator of one
seed per repetition.  ``banach`` times the command ``modop banach T F
--format json`` through ``cli.main`` at (2,3)/3, (8)/2 and 1^64/4, T of
rank deficit 1 and F of rank 1, on operator files written before the
clock starts; the command line is the same in every tree.  ``verify`` times
each verify suite, ``run_suite(suite, RunConfig(seed, n=20, shape="2,3"))``,
drawing, building and checking its 20 instances.  Prints one JSON object: per certificate and rung
the median milliseconds per call (``ms``) and, beside it, the median
minor page faults per call (``minflt``, the ``ru_minflt`` delta of
``getrusage``), plus the numpy version and the host.  A row whose time
moves while its faults move too may be reading the heap layout of the
process rather than the code: each fault costs a few microseconds.

    python3 scripts/ladder_micro.py [--repeats 7] [--seed 0] [--parent REV] [--out FILE]

``--parent`` also times the modop of another commit, from a ``git
archive`` export under ``.bench_build/``, interleaved with this
checkout's: each repetition times both trees, one fresh process per tree,
and the order alternates from one repetition to the next, so load that
drifts during the run falls on both sides alike.  Each process times
every certificate and rung twice: ``"results"`` holds the medians of
the first call, which pays what a ``modop`` command (a fresh process)
pays, and ``"second_call"`` those of the second.  That commit's medians
go under ``"parent"``:

    python3 scripts/ladder_micro.py --parent HEAD~1

OpenBLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is already set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _export import ROOT, export

# (shape, module rank, nilpotent Jordan sizes of the planted endomorphism)
RUNGS = (
    ("2,3", 2, (2, 1)),
    ("16", 4, (3, 2)),
    ("1^32", 4, (2, 1)),
    ("1^256", 4, (2, 1)),
)
# (shape, module rank, column ranks of the two submodules) of the closed-sum pairs
PAIRS = (
    ("1", 25, (6,), (12,)),
    ("2,3", 2, (1, 2), (2, 3)),
)
# module ranks over shape (1) and nilpotent Jordan sizes of the commuting pairs
COMMUTING_MS = (24, 48, 96)
COMMUTING_NILPOTENT = (3,)
# (shape, module rank) of the ``modop banach T F`` rows
BANACH = (("2,3", 3), ("8", 2), ("1^64", 4))
# (shape, module rank, column rank per block) of the ``load_submodule`` and
# ``write_submodule`` rows
SUBMODULE_FILE = ("1^64", 4, 2)


def measure(tree: Path, repeats: int, seed: int) -> dict[str, dict[str, list[list[float]]]]:
    """(milliseconds, minor page faults) of ``repeats`` timed runs per
    certificate and rung, with the modop of ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    from modop import cli, drazin, fredholm, geometry, randgen, serialize
    from modop.linmap import AdjointableMap

    def fresh(f: AdjointableMap) -> AdjointableMap:
        return AdjointableMap(f.shape, f.m, f.n, f.blocks)

    def staircases(f: AdjointableMap) -> tuple[int, int]:
        chain = f.power_chain()
        return chain.index, chain.image(chain.index).dim

    def timed(run, inputs: list) -> list[list[float]]:
        times = []
        for item in inputs:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            run(item)
            ms = (time.perf_counter() - start) * 1e3
            times.append([ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults])
        return times

    results: dict[str, dict[str, list[list[float]]]] = {
        "fredholm_report": {},
        "exact_sequence": {},
        "drazin_inverse": {},
        "b_fredholm_report": {},
        "power_chain": {},
        "closed_sum_report": {},
        "closed_sum_report_unsampled": {},
        "commuting_drazin_criterion": {},
        "load_operator": {},
        "load_submodule": {},
        "write_operator": {},
        "write_submodule": {},
        "generate": {},
        "banach": {},
        "verify": {},
    }
    for text, m, nilpotent in RUNGS:
        rng = np.random.default_rng([seed, len(text), m])
        shape = randgen.parse_shape(text)

        def generate(rng: np.random.Generator) -> None:
            randgen.random_endomorphism(shape, m, rng, nilpotent=nilpotent)
            randgen.random_map(shape, m, m, rng, rank_deficit=1)

        fresh_rngs = [np.random.default_rng([seed, len(text), m]) for _ in range(repeats)]
        results["generate"][f"({text})/{m}"] = timed(generate, fresh_rngs)
        f = randgen.random_map(shape, m, m, rng, rank_deficit=1)
        g = randgen.random_map(shape, m, m, rng, rank_deficit=1)
        endo = randgen.random_endomorphism(shape, m, rng, nilpotent=nilpotent)
        runs = {
            "fredholm_report": lambda fs: fredholm.fredholm_report(fs[0]),
            "exact_sequence": lambda fs: fredholm.exact_sequence(fs[0], fs[1]),
            "drazin_inverse": lambda fs: drazin.drazin_inverse(fs[2]),
            "b_fredholm_report": lambda fs: fredholm.b_fredholm_report(fs[2]),
            "power_chain": lambda fs: staircases(fs[2]),
        }
        for name, run in runs.items():
            copies = [(fresh(f), fresh(g), fresh(endo)) for _ in range(repeats)]
            results[name][f"({text})/{m}"] = timed(run, copies)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "endo.json")
            serialize.save_json(path, serialize.operator_to_jsonable(endo))
            results["load_operator"][f"({text})/{m}"] = timed(serialize.load_operator, [path] * repeats)
        results["write_operator"][f"({text})/{m}"] = timed(
            serialize.operator_to_jsonable, [endo] * repeats
        )
    for text, m, ranks_m, ranks_n in PAIRS:
        rng = np.random.default_rng([seed, len(text), m])
        shape = randgen.parse_shape(text)
        a = randgen.random_submodule(shape, m, rng, ranks=ranks_m)
        b = randgen.random_submodule(shape, m, rng, ranks=ranks_n)
        for name, samples in (("closed_sum_report", 10_000), ("closed_sum_report_unsampled", 0)):

            def closed_sum(rep: int, samples: int = samples) -> None:
                geometry.closed_sum_report(a, b, rng=np.random.default_rng(rep), samples=samples)

            results[name][f"({text})/{m}"] = timed(closed_sum, list(range(repeats)))
    for m in COMMUTING_MS:

        def pair(rng: np.random.Generator) -> tuple[AdjointableMap, AdjointableMap]:
            return randgen.random_commuting_pair(
                randgen.parse_shape("1"), m, rng, nilpotent=COMMUTING_NILPOTENT
            )

        fresh_rngs = [np.random.default_rng([seed, m]) for _ in range(repeats)]
        results["generate"][f"(1)/{m}"] = timed(pair, fresh_rngs)
        f, d = pair(np.random.default_rng([seed, m]))
        results["write_operator"][f"(1)/{m}"] = timed(
            serialize.operator_to_jsonable, [f] * repeats
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.json")
            serialize.save_json(path, serialize.operator_to_jsonable(f))
            results["load_operator"][f"(1)/{m}"] = timed(serialize.load_operator, [path] * repeats)
        copies = [(fresh(f), fresh(d)) for _ in range(repeats)]
        results["commuting_drazin_criterion"][f"(1)/{m}"] = timed(
            lambda fd: drazin.commuting_drazin_criterion(*fd), copies
        )
    text, m, rank = SUBMODULE_FILE
    shape = randgen.parse_shape(text)
    sub = randgen.random_submodule(
        shape, m, np.random.default_rng([seed, len(text), m]), ranks=[rank] * shape.num_blocks
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sub.json")
        serialize.save_json(path, serialize.submodule_to_jsonable(sub))
        results["load_submodule"][f"({text})/{m}"] = timed(serialize.load_submodule, [path] * repeats)
    results["write_submodule"][f"({text})/{m}"] = timed(
        serialize.submodule_to_jsonable, [sub] * repeats
    )
    with tempfile.TemporaryDirectory() as tmp:
        for text, m in BANACH:
            rng = np.random.default_rng([seed, len(text), m])
            shape = randgen.parse_shape(text)
            paths = [os.path.join(tmp, f"{name}-{text}-{m}.json") for name in "tf"]
            for path, op in zip(paths, (
                randgen.random_map(shape, m, m, rng, rank_deficit=1),
                randgen.random_low_rank(shape, m, m, rng, rank=1, scale=0.5),
            )):
                serialize.save_json(path, serialize.operator_to_jsonable(op))

            def banach(argv: list[str]) -> None:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0

            argv = ["banach", *paths, "--format", "json"]
            results["banach"][f"({text})/{m}"] = timed(banach, [argv] * repeats)
    cfg = cli.RunConfig(seed=seed, n=20, shape="2,3")
    for suite in cli.SUITE_NAMES:
        results["verify"][suite] = timed(lambda c, s=suite: cli.run_suite(s, c), [cfg] * repeats)
    return results


def measure_in_child(tree: Path, seed: int) -> dict[str, dict[str, list[list[float]]]]:
    """Two timed calls per certificate and rung, in a fresh process."""
    code = (
        "import json, pathlib, ladder_micro; "
        f"print(json.dumps(ladder_micro.measure(pathlib.Path({str(tree)!r}), 2, {seed})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def medians(
    runs: list[dict[str, dict[str, list[list[float]]]]], calls: slice = slice(None)
) -> dict[str, dict[str, dict[str, float]]]:
    """Median milliseconds and minor page faults per certificate and rung
    over the ``calls`` of every run."""

    def median(name: str, rung: str, column: int) -> float:
        return statistics.median(t[column] for run in runs for t in run[name][rung][calls])

    return {
        name: {
            rung: {"ms": round(median(name, rung, 0), 3), "minflt": median(name, rung, 1)}
            for rung in rungs
        }
        for name, rungs in runs[0].items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="runs per median (default 7)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the planted maps")
    parser.add_argument("--parent", default=None, help="also time this commit, interleaved")
    parser.add_argument("--out", default=None, help="also write the JSON to this file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    payload = {
        "unit": "ms and minor page faults per call (medians)",
        "repeats": args.repeats,
        "seed": args.seed,
        "commit": "checkout",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "host": platform.machine(),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    if args.parent:
        trees = {"parent": export(args.parent), "checkout": ROOT}
        runs: dict[str, list] = {side: [] for side in trees}
        for rep in range(args.repeats):
            for side in list(trees)[:: 1 if rep % 2 == 0 else -1]:
                runs[side].append(measure_in_child(trees[side], args.seed))
        payload["parent"] = {"commit": trees["parent"].name}
        for side, out in (("parent", payload["parent"]), ("checkout", payload)):
            out["results"] = medians(runs[side], slice(0, 1))
            out["second_call"] = medians(runs[side], slice(1, 2))
    else:
        payload["results"] = medians([measure(ROOT, args.repeats, args.seed)])
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
