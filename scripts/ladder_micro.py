"""Size-ladder micro-benchmark of six certificates and the power chain.

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
analyzes, fresh copies per repetition.  Prints one JSON object: the
median milliseconds per certificate and rung, plus the numpy version and
the host.

    python3 scripts/ladder_micro.py [--repeats 7] [--seed 0] [--parent REV] [--out FILE]

``--parent`` times the modop of another commit instead of this
checkout's, from a ``git archive`` export under ``.bench_build/``:

    python3 scripts/ladder_micro.py --parent HEAD~1

OpenBLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is already set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="runs per median (default 7)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the planted maps")
    parser.add_argument("--parent", default=None, help="time this commit instead of the checkout")
    parser.add_argument("--out", default=None, help="also write the JSON to this file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    tree = export(args.parent) if args.parent else ROOT
    sys.path.insert(0, str(tree / "src"))
    import numpy as np

    from modop import drazin, fredholm, geometry, randgen
    from modop.linmap import AdjointableMap

    def fresh(f: AdjointableMap) -> AdjointableMap:
        return AdjointableMap(f.shape, f.m, f.n, f.blocks)

    def staircases(f: AdjointableMap) -> tuple[int, int]:
        chain = f.power_chain()
        return chain.index, chain.image(chain.index).dim

    results: dict[str, dict[str, float]] = {
        "fredholm_report": {},
        "exact_sequence": {},
        "drazin_inverse": {},
        "b_fredholm_report": {},
        "power_chain": {},
        "closed_sum_report": {},
        "closed_sum_report_unsampled": {},
        "commuting_drazin_criterion": {},
    }
    for text, m, nilpotent in RUNGS:
        rng = np.random.default_rng([args.seed, len(text), m])
        shape = randgen.parse_shape(text)
        f = randgen.random_map(shape, m, m, rng, rank_deficit=1)
        g = randgen.random_map(shape, m, m, rng, rank_deficit=1)
        endo = randgen.random_endomorphism(shape, m, rng, nilpotent=nilpotent)
        rung = f"({text})/{m}"
        runs = {
            "fredholm_report": lambda fs: fredholm.fredholm_report(fs[0]),
            "exact_sequence": lambda fs: fredholm.exact_sequence(fs[0], fs[1]),
            "drazin_inverse": lambda fs: drazin.drazin_inverse(fs[2]),
            "b_fredholm_report": lambda fs: fredholm.b_fredholm_report(fs[2]),
            "power_chain": lambda fs: staircases(fs[2]),
        }
        for name, run in runs.items():
            copies = [(fresh(f), fresh(g), fresh(endo)) for _ in range(args.repeats)]
            times = []
            for maps in copies:
                start = time.perf_counter()
                run(maps)
                times.append((time.perf_counter() - start) * 1e3)
            results[name][rung] = round(statistics.median(times), 3)
    for text, m, ranks_m, ranks_n in PAIRS:
        rng = np.random.default_rng([args.seed, len(text), m])
        shape = randgen.parse_shape(text)
        a = randgen.random_submodule(shape, m, rng, ranks=ranks_m)
        b = randgen.random_submodule(shape, m, rng, ranks=ranks_n)
        for name, samples in (("closed_sum_report", 10_000), ("closed_sum_report_unsampled", 0)):
            times = []
            for rep in range(args.repeats):
                start = time.perf_counter()
                geometry.closed_sum_report(a, b, rng=np.random.default_rng(rep), samples=samples)
                times.append((time.perf_counter() - start) * 1e3)
            results[name][f"({text})/{m}"] = round(statistics.median(times), 3)
    for m in COMMUTING_MS:
        rng = np.random.default_rng([args.seed, m])
        f, d = randgen.random_commuting_pair(
            randgen.parse_shape("1"), m, rng, nilpotent=COMMUTING_NILPOTENT
        )
        times = []
        for f_copy, d_copy in [(fresh(f), fresh(d)) for _ in range(args.repeats)]:
            start = time.perf_counter()
            drazin.commuting_drazin_criterion(f_copy, d_copy)
            times.append((time.perf_counter() - start) * 1e3)
        results["commuting_drazin_criterion"][f"(1)/{m}"] = round(statistics.median(times), 3)

    payload = {
        "unit": "ms (median)",
        "repeats": args.repeats,
        "seed": args.seed,
        "commit": tree.name if args.parent else "checkout",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "host": platform.machine(),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "results": results,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
