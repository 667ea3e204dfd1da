#!/usr/bin/env python3
"""Compare the output of ``modop`` commands between another commit and this checkout.

Exports ``--parent`` with ``git archive`` into ``.bench_build/<commit>/``,
writes seeded input files once into ``.bench_build/byte-compare-inputs/``
and runs every command below with the ``src/`` of that export and with
this checkout's ``src/``, one fresh process per run and OpenBLAS on one
thread.  Stdout, stderr and the exit code of the two runs must be equal.
The input files come from this checkout's ``randgen`` alone, so across
the two trees only the ``verify`` commands compare the generators.

Commands (187):
  * ``verify``: the eleven suites at seeds 1-3 on shapes 2,3, 1^8, 4 and
    1^6,2^3,3 (several blocks of one size beside single blocks, so the
    generators' per-group builds meet both kinds of group);
  * ``analyze`` (json and text), ``drazin`` and ``banach`` on a planted
    endomorphism and a rank-deficient map A^3 -> A^2 over (2,3), 1^8
    and (4), module rank 3, and ``banach T F`` on the map with a rank-one
    perturbation F (the finite-rank perturbation certificate);
  * ``analyze`` (json and text) and ``drazin`` on a 1^8 endomorphism whose
    equal-size blocks differ in nilpotent sizes and a 1^8 map A^3 -> A^2
    whose blocks differ in rank deficit, and ``geometry`` on the
    endomorphism with itself and with the map: their kernels and images
    hold blocks of one size in several groups, so the certificates
    regroup them;
  * ``analyze`` and ``drazin`` (json) on a planted 1^64/4 endomorphism
    scaled by 2^-560 and by 2^+500, whose squared entries under- and
    overflow: the largest singular value over many blocks must not
    square them unscaled;
  * ``geometry`` on transverse, intersecting and operator pairs at seeds
    0-2, and on a submodule file whose spanning set is dependent (one
    vector twice and one of its right multiples v a) against the
    seed-0 transverse file: the per-block span decision on redundant
    input;
  * the three ``probe`` families, text and csv.

Prints each differing command with its differing lines, then how many
commands differ, and ends with one line counting the differing lines per
key: the JSON or text key before the colon, csv rows under ``csv`` and
exit codes under ``exit code``.  Exits 1 if any command differs, 0
otherwise.

    python3 scripts/byte_compare.py --parent HEAD~1
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from _export import BUILD, ROOT, export

INPUTS = BUILD / "byte-compare-inputs"

VERIFY_SHAPES = ("2,3", "1^8", "4", "1^6,2^3,3")
VERIFY_SEEDS = (1, 2, 3)
MAP_SHAPES = ("2,3", "1^8", "4")
MAP_RANK = 3
GEOMETRY_SEEDS = (0, 1, 2)
# per block of the 1^8 maps: planted nilpotent sizes, and rank deficits
RAGGED_NILPOTENT = ((), (1,), (2,), (3,), (2, 1), (1, 1), (1, 1, 1), (2,))
RAGGED_DEFICITS = (0, 1, 2, 0, 1, 2, 1, 0)
# powers of two scaling the 1^64 endomorphism: its squares under- and overflow
EXTREME_SCALES = (-560, 500)


def write_inputs() -> list[list[str]]:
    """Seeded input files, and the command lines that read them."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from modop import randgen, serialize
    from modop.cli import SUITE_NAMES
    from modop.linmap import AdjointableMap
    from modop.modules import ModuleVector, Submodule
    from modop.probes import FAMILY_NAMES

    shutil.rmtree(INPUTS, ignore_errors=True)
    INPUTS.mkdir(parents=True)

    def save(name: str, payload: dict) -> str:
        path = INPUTS / name
        serialize.save_json(str(path), payload)
        return str(path)

    commands = [
        ["verify", suite, "--seed", str(seed), "--shape", shape, "--format", "json"]
        for shape in VERIFY_SHAPES
        for seed in VERIFY_SEEDS
        for suite in SUITE_NAMES
    ]

    for text in MAP_SHAPES:
        shape = randgen.parse_shape(text)
        rng = np.random.default_rng([MAP_RANK, *shape.block_sizes])
        endo = randgen.random_endomorphism(shape, MAP_RANK, rng, nilpotent=(2, 1))
        rect = randgen.random_map(shape, MAP_RANK, 2, rng, rank_deficit=1)
        for kind, f in (("endo", endo), ("rect", rect)):
            path = save(f"{kind}-{text}-{MAP_RANK}.json", serialize.operator_to_jsonable(f))
            commands += [
                ["analyze", path, "--format", "json"],
                ["analyze", path],
                ["drazin", path, "--format", "json"],
                ["banach", path, "--format", "json"],
            ]
        pert = randgen.random_low_rank(shape, MAP_RANK, 2, rng, rank=1, scale=0.5)
        pert_path = save(f"pert-{text}-{MAP_RANK}.json", serialize.operator_to_jsonable(pert))
        commands.append(["banach", path, pert_path, "--format", "json"])  # T: the rect map

    shape, one = randgen.parse_shape("1^8"), randgen.parse_shape("1")
    rng = np.random.default_rng([MAP_RANK, 8, 8])
    endo = AdjointableMap(shape, MAP_RANK, MAP_RANK, tuple(
        randgen.random_endomorphism(one, MAP_RANK, rng, nilpotent=sizes).blocks[0]
        for sizes in RAGGED_NILPOTENT
    ))
    rect = AdjointableMap(shape, MAP_RANK, 2, tuple(
        randgen.random_map(one, MAP_RANK, 2, rng, rank_deficit=d).blocks[0] for d in RAGGED_DEFICITS
    ))
    paths = {}
    for kind, f in (("endo", endo), ("rect", rect)):
        path = save(f"ragged-{kind}-1^8-{MAP_RANK}.json", serialize.operator_to_jsonable(f))
        paths[kind] = path
        commands += [
            ["analyze", path, "--format", "json"],
            ["analyze", path],
            ["drazin", path, "--format", "json"],
        ]
    for right in paths.values():  # Im F against ker F, and against the kernel of the map
        commands.append(["geometry", paths["endo"], right, "--seed", "0", "--format", "json"])

    endo = randgen.random_endomorphism(
        randgen.parse_shape("1^64"), 4, np.random.default_rng([4, 64]), nilpotent=(2, 1)
    )
    for power in EXTREME_SCALES:
        scaled = serialize.operator_to_jsonable(2.0**power * endo)
        path = save(f"scaled-endo-1^64-4-{power}.json", scaled)
        commands += [["analyze", path, "--format", "json"], ["drazin", path, "--format", "json"]]

    shape = randgen.parse_shape("2,3")
    for seed in GEOMETRY_SEEDS:
        rng = np.random.default_rng(seed)
        left = randgen.random_submodule(shape, 3, rng, ranks=(2, 3))
        right = randgen.random_submodule(shape, 3, rng, ranks=(3, 4))
        # a line of ``left`` planted in a generic 3- (4-) space: they meet in it
        meets = [
            np.linalg.qr(np.hstack([a[:, :1], b]))[0]
            for a, b in zip(left.column_bases, right.column_bases)
        ]
        f = randgen.random_map(shape, 2, 3, rng, rank_deficit=1)
        d = randgen.random_map(shape, 3, 2, rng, rank_deficit=1)
        pairs = {
            "transverse": (left, right),
            "intersecting": (left, Submodule(shape, 3, tuple(meets))),
            "operators": (f, d),
        }
        for kind, operands in pairs.items():
            paths = [
                save(
                    f"geometry-{kind}-{seed}-{side}.json",
                    serialize.operator_to_jsonable(x)
                    if kind == "operators"
                    else serialize.submodule_to_jsonable(x),
                )
                for side, x in zip(("left", "right"), operands)
            ]
            commands.append(["geometry", *paths, "--seed", str(seed), "--format", "json"])

    rng = np.random.default_rng([MAP_RANK, 2, 3])
    v = ModuleVector.from_flat(shape, 3, randgen.random_vector_flat(shape, 3, rng))
    moved = v.right_mul(randgen.random_element(shape, rng))
    dependent = save("geometry-dependent.json", {
        "shape": serialize.shape_to_jsonable(shape),
        "m": 3,
        "vectors": [serialize.vector_to_jsonable(x) for x in (v, v, moved)],
    })
    transverse = str(INPUTS / "geometry-transverse-0-right.json")
    commands.append(["geometry", dependent, transverse, "--seed", "0", "--format", "json"])

    for family in FAMILY_NAMES:
        commands += [["probe", family], ["probe", family, "--format", "csv"]]
    return commands


def run(tree: Path, argv: list[str]) -> tuple[str, str, int]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "modop", *argv], cwd=tree, env=env, capture_output=True, text=True
    )
    return proc.stdout, proc.stderr, proc.returncode


def differences(before: tuple[str, str, int], after: tuple[str, str, int]) -> list[str]:
    lines = []
    for stream, old, new in zip(("stdout", "stderr"), before[:2], after[:2]):
        diff = list(difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0))
        # past the ---/+++ header, every line is a hunk header or a changed line
        lines += [f"  {stream} {ln}" for ln in diff[2:] if not ln.startswith("@@")]
    if before[2] != after[2]:
        lines.append(f"  exit code {before[2]} -> {after[2]}")
    return lines


def key_of(argv: list[str], line: str) -> str:
    """The key a line of :func:`differences` belongs to."""
    stream, _, rest = line.strip().partition(" ")
    if stream not in ("stdout", "stderr"):
        return "exit code"
    if stream == "stdout" and "csv" in argv:
        return "csv"
    return rest[1:].partition(":")[0].strip().strip('"')


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against, e.g. HEAD")
    args = parser.parse_args(argv)

    parent = export(args.parent)
    commands = write_inputs()
    jobs = [(tree, argv) for argv in commands for tree in (parent, ROOT)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: run(*job), jobs))

    differing, keys = 0, Counter()
    for i, argv in enumerate(commands):
        lines = differences(results[2 * i], results[2 * i + 1])
        if lines:
            differing += 1
            keys.update(key_of(argv, line) for line in lines)
            print("modop " + " ".join(argv).replace(f"{INPUTS}{os.sep}", ""))
            print("\n".join(lines))
    print(f"{differing} of {len(commands)} commands differ from {args.parent}")
    tally = ", ".join(f"{key} {count}" for key, count in sorted(keys.items()))
    print(f"differing lines per key: {tally or 'none'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
