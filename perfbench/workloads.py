"""The benchmark's workloads: per-pass command lines built from planted
structure, and the checks that hold each output against it.

Every pass draws its inputs from ``numpy.random.default_rng([seed, pass])``
and writes them to a directory of its own, so no input file and no
command line repeats within a run.

* ``verify-small`` -- ``modop verify <suite> --n 20 --shape 2,3`` for all
  eleven suites, the seed advancing on every command: thousands of tiny
  SVDs, repeated decompositions, per-instance ``randgen`` and the
  ``run_suite`` thread pool.  ``closed-sum`` and ``exact-sequence`` run
  twice per pass.  Run once, closed-sum would be 1/11 of the commands and
  three times slower than any other suite, which would put the p90 at the
  tail of the other suites' samples, where one slow command moves it.
  exact-sequence is the middle suite by latency: run twice, the pass
  holds 13 commands and the median falls inside its samples, not in the
  gap between two suites.
* ``ladder-blockwise`` -- ``analyze`` / ``drazin`` on endomorphisms with
  planted nilpotent parts and ``analyze`` on rectangular maps with
  planted rank deficits along the size ladder, the same two commands on
  commuting-pair operators, and two ``probe`` families: blockwise spectral
  work.
* ``ladder-flat`` -- ``geometry`` (10,000 samples), ``banach`` and
  ``verify exact-sequence``: the commands whose work runs on dense flat
  realizations.

The ladder passes also hold an odd number of commands (23 and 9), so
the median of a run falls inside the samples of one command rather than
in the gap between two.

A run makes a fixed number of passes: ``--seconds`` divided by the
workload's ``pass_seconds``, the time one pass took at the seed commit
on a 2-vCPU VM (Python 3.11, numpy 2.4, OpenBLAS on one thread).  Units
and failures then depend on the seed alone, not on the machine's speed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from arith import single_unit, verify_units

SUITE_NAMES = (
    "exact-sequence",
    "perturbation-chain",
    "product-chain",
    "drazin-axioms",
    "commuting-drazin",
    "dual",
    "browder",
    "bouldin",
    "closed-sum",
    "banach-perturbation",
    "banach-product",
)
VERIFY_N = 20

# (shape, m, nilpotent Jordan sizes of the endomorphism, codomain and
# rank deficit of the rectangular map)
BLOCKWISE_RUNGS = (
    ("2,3", 2, (2, 1), 3, 1),
    ("4", 4, (3, 1), 3, 1),
    ("16", 4, (3, 2), 5, 1),
    ("1^32", 4, (2, 1), 3, 1),
    ("1^256", 4, (2, 1), 5, 1),
)
COMMUTING_MS = (24, 48, 96)
COMMUTING_NILPOTENT = (3,)
PROBE_BASE_SIZES = (4, 8, 16, 32)
SQUARE_FAMILY_GAMMA = 1.0 / 6.0

# geometry: (shape, m); banach: (shape, m, rank deficit);
# exact-sequence: shape
GEOMETRY_RUNGS = (("2,3", 2), ("4", 4))
BANACH_RUNGS = (("1^24", 4, 1), ("8", 2, 1), ("1^32", 4, 1))
EXACT_SEQUENCE_SHAPES = ("2,3", "4", "1^6", "1^8")
GEOMETRY_SAMPLES = 10_000

# Seeds of ``modop`` commands are drawn from this stride per workload seed.
SEED_STRIDE = 100_000
# Generator key of the cold-start input (pass generators use the pass index).
COLD_START_KEY = 1_000_000


@dataclass
class Command:
    """One command line and what its output must show."""

    label: str
    argv: list[str]
    check: Callable[[Any], list[str]]
    units: int = 1
    verify: bool = False


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def evaluate(cmd: Command, code: int, out: str, err: str) -> Outcome:
    """Count the command's units and failed units, and say what failed."""
    payload = None
    if code in (0, 1) and out:
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            payload = None
    problems: list[str] = []
    if cmd.verify:
        reported = None
        if isinstance(payload, dict) and isinstance(payload.get("failures"), list):
            reported = len(payload["failures"])
            for fail in payload["failures"]:
                problems.append(f"instance {fail.get('instance')}: {fail.get('error')}")
            check = cmd.check(payload)
            if code != (1 if reported else 0):
                check.append(f"exit {code} with {reported} reported failures")
        else:
            check = [f"exit {code}, no readable payload: {_last_line(err)}"]
        problems.extend(check)
        return Outcome(cmd.units, verify_units(cmd.units, code, reported, not check), problems)
    if code != 0:
        problems.append(f"exit {code}: {_last_line(err)}")
    elif payload is None:
        problems.append("output is not JSON")
    else:
        problems.extend(cmd.check(payload))
    return Outcome(1, single_unit(code, not problems), problems)


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else "(no message)"


def _expect(problems: list[str], what: str, got: Any, want: Any) -> None:
    if got != want:
        problems.append(f"{what} = {got}, planted {want}")


# ---------------------------------------------------------------------------
# planted structure


def kernel_k0_of_map(block_sizes: tuple[int, ...], m: int, n: int, deficit: int) -> list[int]:
    """Kernel class of ``randgen.random_map(shape, m, n, rank_deficit=deficit)``:
    per block the compressed (n*nb x m*nb) matrix keeps min(...) - deficit
    singular values."""
    out = []
    for nb in block_sizes:
        k = min(n * nb, m * nb)
        out.append(m * nb - (k - min(deficit, k)))
    return out


def flat_defects(block_sizes: tuple[int, ...], m: int, n: int, deficit: int) -> tuple[int, int]:
    """(dim ker, codim im) of the flat realization of the same map: each
    compressed block acts with multiplicity nb."""
    rank = 0
    for nb in block_sizes:
        k = min(n * nb, m * nb)
        rank += nb * (k - min(deficit, k))
    flat = sum(nb * nb for nb in block_sizes)
    return m * flat - rank, n * flat - rank


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def planted_pair(shape: Any, m: int, rng: np.random.Generator):
    """Two submodules meeting in a planted part W of multiplicity
    max(1, d/4) per block (d = m*nb): L = W + X, R = W + (Y + t X'), with
    W, X, Y orthonormal and t in [0.4, 0.8], so L and R meet exactly in W
    and their transverse parts sit at a nonzero angle."""
    from modop.modules import Submodule

    left, right, meet = [], [], []
    for nb in shape.block_sizes:
        d = m * nb
        r0 = max(1, d // 4)
        r1 = (d - r0) // 3
        q = _unitary(rng, d)
        w, x, y = q[:, :r0], q[:, r0 : r0 + r1], q[:, r0 + r1 : r0 + 2 * r1]
        tilt = rng.uniform(0.4, 0.8)
        left.append(np.linalg.qr(np.hstack([w, x]))[0])
        right.append(np.linalg.qr(np.hstack([w, y + tilt * x[:, ::-1]]))[0])
        meet.append(r0)
    return Submodule(shape, m, tuple(left)), Submodule(shape, m, tuple(right)), meet


# ---------------------------------------------------------------------------
# checks


def check_verify(suite: str, n: int, seed: int) -> Callable[[Any], list[str]]:
    def check(payload: Any) -> list[str]:
        problems: list[str] = []
        _expect(problems, "suite", payload.get("suite"), suite)
        _expect(problems, "seed", payload.get("config", {}).get("seed"), seed)
        counted = payload.get("passes", -1) + len(payload.get("failures", []))
        _expect(problems, "passes + failures", counted, n)
        return problems

    return check


def check_analyze(kernel_k0: list[int], index: list[int], p: int | None) -> Callable[[Any], list[str]]:
    def check(payload: Any) -> list[str]:
        problems: list[str] = []
        fred = payload.get("fredholm") or {}
        _expect(problems, "kernel K0", (fred.get("kernel") or {}).get("k0"), kernel_k0)
        _expect(problems, "index", fred.get("index"), index)
        if p is not None:
            _expect(problems, "Drazin p", (payload.get("drazin") or {}).get("p"), p)
        return problems

    return check


def check_drazin(p: int) -> Callable[[Any], list[str]]:
    def check(payload: Any) -> list[str]:
        problems: list[str] = []
        _expect(problems, "Drazin p", payload.get("p"), p)
        _expect(problems, "ascent", payload.get("ascent"), p)
        return problems

    return check


def check_square_probe(sizes: list[int]) -> Callable[[Any], list[str]]:
    def check(payload: Any) -> list[str]:
        problems: list[str] = []
        _expect(problems, "sizes", payload.get("sizes"), sizes)
        for n, g in zip(sizes, payload.get("gamma_f", [])):
            if not isinstance(g, float) or abs(g - SQUARE_FAMILY_GAMMA) > 1e-10:
                problems.append(f"gamma(F) at n={n} is {g}, expected 1/6")
        for flag, value in (payload.get("monotonicity") or {}).items():
            if value is not True:
                problems.append(f"monotonicity flag {flag} is {value}")
        if len(payload.get("monotonicity") or {}) != 3:
            problems.append("monotonicity flags missing")
        return problems

    return check


def check_multiplier_probe(sizes: list[int]) -> Callable[[Any], list[str]]:
    """Multiplication by j/(n+1) on n one-dimensional blocks: the reduced
    minimum modulus is the smallest sample, 1/(n+1)."""

    def check(payload: Any) -> list[str]:
        problems: list[str] = []
        _expect(problems, "sizes", payload.get("sizes"), sizes)
        for n, g in zip(sizes, payload.get("gamma_f", [])):
            want = 1.0 / (n + 1)
            if not isinstance(g, float) or abs(g - want) > 1e-12 * want:
                problems.append(f"gamma(F) at n={n} is {g}, expected 1/{n + 1}")
        return problems

    return check


def check_geometry(meet: list[int]) -> Callable[[Any], list[str]]:
    def check(payload: Any) -> list[str]:
        problems: list[str] = []
        _expect(problems, "intersection class", payload.get("intersection_class"), meet)
        _expect(problems, "sample count", payload.get("sample_count"), GEOMETRY_SAMPLES)
        norm, bound = payload.get("sampled_max_norm"), payload.get("bound_C")
        if not isinstance(norm, float) or not isinstance(bound, float) or not norm <= bound:
            problems.append(f"sampled norm {norm} not within bound_C {bound}")
        return problems

    return check


def check_banach(dim_ker: int, codim_im: int) -> Callable[[Any], list[str]]:
    def check(payload: Any) -> list[str]:
        problems: list[str] = []
        reg = payload.get("regular") or {}
        rank = reg.get("rank")
        if not isinstance(rank, int):
            return ["no rank in the regular certificate"]
        _expect(problems, "dim ker", reg["ker_decomposition"]["ambient"] - rank, dim_ker)
        _expect(problems, "codim im", reg["im_decomposition"]["ambient"] - rank, codim_im)
        _expect(problems, "generalized Weyl", payload.get("generalized_weyl"), dim_ker == codim_im)
        pert = payload.get("perturbation") or {}
        _expect(problems, "perturbation identity lhs", pert.get("lhs"), pert.get("rhs", "missing"))
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    pass_seconds = 1.0  # nominal seconds per pass; sets a run's pass count

    def __init__(self, seed: int, workdir: str):
        from modop import randgen, serialize

        self.seed = seed
        self.workdir = workdir
        self.randgen = randgen
        self.serialize = serialize
        self._next_seed = seed * SEED_STRIDE
        os.makedirs(workdir, exist_ok=True)
        # The cold-start probe's input: the smallest blockwise rung.
        rng = self.rng(COLD_START_KEY)
        shape = randgen.parse_shape("2,3")
        self.cold_start_input = self._save(
            "cold-start.json",
            randgen.random_endomorphism(shape, 2, rng, nilpotent=(2, 1)),
        )
        self.cold_start_check = check_analyze([2, 2], [0, 0], 2)

    def rng(self, key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, key])

    def command_seed(self) -> int:
        self._next_seed += 1
        return self._next_seed

    def _save(self, rel: str, obj: Any) -> str:
        path = os.path.join(self.workdir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if hasattr(obj, "column_bases"):
            data = self.serialize.submodule_to_jsonable(obj)
        else:
            data = self.serialize.operator_to_jsonable(obj)
        # The stdlib one-shot encoder writes the same JSON values as the
        # canonical writer in a fraction of the set-up time.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))
        return path

    def _verify(self, suite: str, shape: str) -> Command:
        seed = self.command_seed()
        argv = ["verify", suite, "--n", str(VERIFY_N), "--shape", shape, "--seed", str(seed)]
        return Command(
            label=" ".join(argv),
            argv=argv + ["--format", "json"],
            check=check_verify(suite, VERIFY_N, seed),
            units=VERIFY_N,
            verify=True,
        )

    def make_pass(self, index: int) -> list[Command]:
        raise NotImplementedError


class VerifySmall(Workload):
    name = "verify-small"
    pass_seconds = 2.35

    def make_pass(self, index: int) -> list[Command]:
        suites = (*SUITE_NAMES, "closed-sum", "exact-sequence")
        return [self._verify(suite, "2,3") for suite in suites]


class LadderBlockwise(Workload):
    name = "ladder-blockwise"
    pass_seconds = 1.8

    def make_pass(self, index: int) -> list[Command]:
        rg = self.randgen
        rng = self.rng(index)
        cmds: list[Command] = []
        for text, m, nil, n, deficit in BLOCKWISE_RUNGS:
            shape = rg.parse_shape(text)
            blocks = len(shape.block_sizes)
            endo = self._save(
                f"p{index}/endo-{text}-{m}.json",
                rg.random_endomorphism(shape, m, rng, nilpotent=nil),
            )
            rect = self._save(
                f"p{index}/rect-{text}-{m}x{n}.json",
                rg.random_map(shape, m, n, rng, rank_deficit=deficit),
            )
            rung = f"({text})/{m}"
            p = max(nil)
            cmds.append(
                Command(f"analyze endo {rung}", ["analyze", endo, "--format", "json"],
                        check_analyze([len(nil)] * blocks, [0] * blocks, p))
            )
            cmds.append(
                Command(f"drazin endo {rung}", ["drazin", endo, "--format", "json"], check_drazin(p))
            )
            k0 = kernel_k0_of_map(shape.block_sizes, m, n, deficit)
            index_k0 = [(m - n) * nb for nb in shape.block_sizes]
            cmds.append(
                Command(f"analyze rect {rung}->{n}", ["analyze", rect, "--format", "json"],
                        check_analyze(k0, index_k0, None))
            )
        shape1 = rg.parse_shape("1")
        p = max(COMMUTING_NILPOTENT)
        for m in COMMUTING_MS:
            f, _ = rg.random_commuting_pair(shape1, m, rng, nilpotent=COMMUTING_NILPOTENT)
            path = self._save(f"p{index}/commuting-{m}.json", f)
            kernel = [len(COMMUTING_NILPOTENT)]
            cmds.append(
                Command(f"analyze commuting (1)/{m}", ["analyze", path, "--format", "json"],
                        check_analyze(kernel, [0], p))
            )
            cmds.append(
                Command(f"drazin commuting (1)/{m}", ["drazin", path, "--format", "json"],
                        check_drazin(p))
            )
        for family, check in (("nonclosed-square", check_square_probe),
                              ("multiplier", check_multiplier_probe)):
            sizes = [int(s + rng.integers(0, 2)) for s in PROBE_BASE_SIZES]
            text = ",".join(map(str, sizes))
            cmds.append(
                Command(f"probe {family}",
                        ["probe", family, "--sizes", text, "--format", "json"], check(sizes))
            )
        return cmds


class LadderFlat(Workload):
    name = "ladder-flat"
    pass_seconds = 1.3

    def make_pass(self, index: int) -> list[Command]:
        rg = self.randgen
        rng = self.rng(index)
        cmds: list[Command] = []
        for text, m in GEOMETRY_RUNGS:
            shape = rg.parse_shape(text)
            left, right, meet = planted_pair(shape, m, rng)
            lpath = self._save(f"p{index}/left-{text}-{m}.json", left)
            rpath = self._save(f"p{index}/right-{text}-{m}.json", right)
            seed = self.command_seed()
            cmds.append(
                Command(f"geometry ({text})/{m}",
                        ["geometry", lpath, rpath, "--seed", str(seed), "--format", "json"],
                        check_geometry(meet))
            )
        for text, m, deficit in BANACH_RUNGS:
            shape = rg.parse_shape(text)
            t = self._save(
                f"p{index}/t-{text}-{m}.json", rg.random_map(shape, m, m, rng, rank_deficit=deficit)
            )
            f = self._save(
                f"p{index}/f-{text}-{m}.json", rg.random_low_rank(shape, m, m, rng, rank=1, scale=0.5)
            )
            dim_ker, codim_im = flat_defects(shape.block_sizes, m, m, deficit)
            cmds.append(
                Command(f"banach ({text})/{m}", ["banach", t, f, "--format", "json"],
                        check_banach(dim_ker, codim_im))
            )
        for text in EXACT_SEQUENCE_SHAPES:
            cmds.append(self._verify("exact-sequence", text))
        return cmds


WORKLOADS = {cls.name: cls for cls in (VerifySmall, LadderBlockwise, LadderFlat)}

