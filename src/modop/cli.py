"""Command-line front end.

Subcommands
-----------
analyze    classification bundle (index, Drazin, power stabilization,
           kernel/image geometry) for one operator file.
verify     seeded randomized property suites; exit 0 iff every instance
           passes.
probe      decay tables for the deterministic operator families.
drazin     core-nilpotent report for one operator file.
geometry   angle/closed-sum report for two submodule or operator files
           (an operator contributes its image on the left slot, its
           kernel on the right slot).
banach     regular-operator certificate (orthogonal complements) for one
           operator file, with an optional finite-rank perturbation.

Only ``verify`` and ``geometry`` draw random numbers, so only they take
``--seed``; only ``probe`` renders ``--format csv`` besides text and json.
argparse rejects either option on any other command (exit code 2).

Determinism contract: identical command line (seed, counts, tolerances)
produces byte-identical output.  A suite runs its instances in chunks of
at most ``BATCH``: it draws each instance of a chunk in index order, each
from its own index-keyed generator, builds the whole chunk once
(``randgen.build``, bitwise what building each instance alone gives),
then checks each instance in index order.  So no output depends on
``BATCH``.  A failed draw or check is recorded against its instance; a
LAPACK error inside a chunk's build belongs to no instance and exits 3.

The argument parser is built once per process and reused by every
``main`` call: a ``modop`` process builds it once, as before, and
in-process callers (the tests, the benchmarks, scripts) stop rebuilding
it per command.

Exit codes: 0 all checks pass, 1 a property check failed, 2 usage or
data errors, 3 the input is too ill-conditioned to certify
(``IllConditionedError``) or a LAPACK routine failed on it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import cache, cached_property
from typing import Any, Callable, Sequence

import numpy as np

from . import banach, drazin, fredholm, geometry, probes, randgen, serialize
from .algebra import AlgebraShape
from .errors import (
    DataError,
    IdentityViolation,
    IllConditionedError,
    ModopError,
    StructureError,
    UnmetHypothesisError,
)
from .linmap import AdjointableMap
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = ["RunConfig", "run_suite", "SUITE_NAMES", "main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_ILL_CONDITIONED = 3


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a verify run (and hence its bytes)."""

    seed: int = 0
    n: int = 20
    shape: str = "2,3"
    tol: ToleranceConfig = DEFAULT_TOL

    @cached_property
    def algebra(self) -> AlgebraShape:
        """The parsed ``shape``."""
        return randgen.parse_shape(self.shape)

    def echo(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.n,
            "shape": self.shape,
            **asdict(self.tol),
        }


def _rng_for(seed: int, index: int) -> np.random.Generator:
    # Index-keyed streams: instance i sees the same draws whatever other
    # instances ran before it, or whether they ran at all.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# ---------------------------------------------------------------------------
# verify suites: per suite, ``draw`` makes one seeded instance's draws (a
# tuple holding randgen.Pending objects and plain values) and ``check``
# runs its certificate on the built instance, returns metrics and raises a
# ModopError subtype on any violated property.


def _draw_exact_sequence(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    shape = cfg.algebra
    m1, m2, m3 = 2 + int(rng.integers(0, 2)), 3, 2
    f = randgen.draw_map(shape, m1, m2, rng, rank_deficit=int(rng.integers(0, 2)))
    return f, randgen.draw_map(shape, m2, m3, rng, rank_deficit=int(rng.integers(0, 2)))


def _check_exact_sequence(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    rep = fredholm.exact_sequence(*inst, cfg.tol)
    if rep.worst_residual > 1e-8:
        raise IdentityViolation(f"node residual {rep.worst_residual:.3e} above 1e-8")
    return {"worst_node_residual": rep.worst_residual}


def _draw_perturbation_chain(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    shape = cfg.algebra
    m, n = 2, 3
    t = randgen.draw_map(shape, m, n, rng, rank_deficit=int(rng.integers(0, 2)))
    return t, randgen.draw_low_rank(shape, m, n, rng, rank=1 + int(rng.integers(0, 2)), scale=0.8)


def _check_perturbation_chain(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    return {"margin": fredholm.weyl_perturbation_chain(*inst, cfg.tol).margin}


def _draw_product_chain(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    shape = cfg.algebra
    m1, m2, m3 = 3, 2, 3
    f = randgen.draw_map(shape, m1, m2, rng, rank_deficit=int(rng.integers(0, 2)))
    return f, randgen.draw_map(shape, m2, m3, rng, rank_deficit=int(rng.integers(0, 2)))


def _check_product_chain(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    f, d = inst
    return {"margin": fredholm.product_chain(d, f, cfg.tol).margin}


_DRAZIN_SHAPES = ("1^6", "2", "2,3")


def _draw_planted_endo(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    shape_text = _DRAZIN_SHAPES[int(rng.integers(0, len(_DRAZIN_SHAPES)))]
    shape = randgen.parse_shape(shape_text)
    m = 2 if shape.block_sizes == (2, 3) else (3 if shape.block_sizes == (2,) else 1)
    dim_min = m * min(shape.block_sizes)
    sizes = []
    budget = dim_min
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(1, 4))
        if k <= budget - len(sizes):
            sizes.append(k)
            budget -= k
    return (randgen.draw_endomorphism(shape, m, rng, nilpotent=sizes),)


def _check_drazin_axioms(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    rep = drazin.drazin_inverse(*inst, cfg.tol)
    worst = max(rep.residuals.values())
    if worst > 1e-9:
        raise IdentityViolation(f"axiom residual {worst:.3e} above 1e-9")
    return {"worst_axiom_residual": worst, "splitting_cond": rep.splitting_cond}


def _draw_commuting_drazin(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    m = 6 + int(rng.integers(0, 7))  # complex dimensions 6..12
    shape = randgen.parse_shape("1")
    nil = [int(rng.integers(1, 4))]
    if rng.integers(0, 2):
        nil.append(int(rng.integers(1, 3)))
    return (randgen.draw_commuting_pair(shape, m, rng, nilpotent=nil),)


def _check_commuting_drazin(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    rep = drazin.commuting_drazin_criterion(*inst[0], cfg.tol)
    return {"commutator_residual": rep.commutator_residual, "found_k": float(rep.k)}


def _check_dual(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    rep = drazin.drazin_dual_check(*inst, cfg.tol)
    return {
        "inverse_residual": rep.inverse_residual,
        "worst_orthogonality": max(rep.orthogonality_residuals, default=0.0),
    }


def _draw_browder(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    m = 6 + int(rng.integers(0, 5))
    return (randgen.draw_commuting_pair(
        randgen.parse_shape("1"), m, rng, nilpotent=[int(rng.integers(1, 4))]
    ),)


def _check_browder(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    rep = drazin.commuting_browder_check(*inst[0], cfg.tol)
    worst_off = max(rep.witness_f.off_diagonal_residual, rep.witness_d.off_diagonal_residual)
    if worst_off > 1e-8:
        raise IdentityViolation(f"off-diagonal block norm {worst_off:.3e} above 1e-8")
    return {
        "worst_off_diagonal": worst_off,
        "kernel_identity_defect": rep.kernel_identity_defect,
    }


def _draw_bouldin(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    shape = randgen.parse_shape("2")
    m1, m2, m3 = 3, 3, 3
    f = randgen.draw_map(shape, m1, m2, rng, rank_deficit=int(rng.integers(0, 3)))
    return f, randgen.draw_map(shape, m2, m3, rng, rank_deficit=int(rng.integers(0, 3)))


def _check_bouldin(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    rep = geometry.bouldin_criterion(*inst, cfg.tol)
    margin_q = rep.closed_sum.delta
    gap = (
        abs(rep.margin_p - margin_q)
        if math.isfinite(rep.margin_p) and math.isfinite(margin_q)
        else 0.0
    )
    return {
        "margin_gap": gap,
        "duality_residual": rep.duality_residual,
        "margin": rep.margin_p if math.isfinite(rep.margin_p) else margin_q,
    }


def _draw_closed_sum(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    m = 10 + int(rng.integers(0, 31))  # ambient complex dimension 10..40
    shape = randgen.parse_shape("1")
    r1 = 1 + int(rng.integers(0, m // 3))
    r2 = 1 + int(rng.integers(0, m - r1 - 1)) if m - r1 - 1 >= 1 else 1
    msub = randgen.draw_submodule(shape, m, rng, ranks=(r1,))
    return msub, randgen.draw_submodule(shape, m, rng, ranks=(r2,))


def _check_closed_sum(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    rep = geometry.closed_sum_report(*inst, cfg.tol, samples=0)
    return {
        "pythagoras_residual": rep.pythagoras_residual or 0.0,
        "bound_utilization": (rep.oblique_norm or 0.0) / rep.bound_C
        if math.isfinite(rep.bound_C)
        else 0.0,
    }


def _draw_banach_perturbation(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    rows, cols = 6 + int(rng.integers(0, 4)), 6 + int(rng.integers(0, 3))
    data = randgen.draw_regular_data(
        rows, cols, rng, rank_deficit=1 + int(rng.integers(0, 2)), shear=0.3, tol=cfg.tol
    )
    u = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    v = rng.normal(size=cols) + 1j * rng.normal(size=cols)
    return data, u, v


def _check_banach_perturbation(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    (t, kc, ic), u, v = inst
    reg = banach.make_regular(t, kc, ic, cfg.tol)
    worst_proj = max(reg.ker_decomposition.norm, reg.im_decomposition.norm)
    if worst_proj > 1e4:
        raise UnmetHypothesisError(f"projector norm {worst_proj:.3e} above the 1e4 gate")
    f = 0.4 * np.outer(u, v) / max(np.linalg.norm(u) * np.linalg.norm(v), 1e-300)
    rec = banach.banach_perturbation(reg, AdjointableMap(t.shape, t.m, t.n, (f,)), cfg.tol)
    return {
        "worst_projector_norm": max(
            worst_proj, rec.perturbed.ker_decomposition.norm, rec.perturbed.im_decomposition.norm
        ),
        "rank_f": float(rec.rank_f),
    }


def _draw_banach_product(rng: np.random.Generator, cfg: RunConfig) -> tuple:
    x, y, z = 6 + int(rng.integers(0, 3)), 7, 6
    t = randgen.draw_regular_data(y, x, rng, rank_deficit=1, shear=0.25, tol=cfg.tol)
    return t, randgen.draw_regular_data(z, y, rng, rank_deficit=1, shear=0.25, tol=cfg.tol)


def _check_banach_product(inst: tuple, cfg: RunConfig) -> dict[str, float]:
    t_reg, s_reg = (banach.make_regular(*data, cfg.tol) for data in inst)
    rec = banach.banach_product(s_reg, t_reg, cfg.tol)
    return {
        "worst_node_residual": max(rec.node_residuals) if rec.node_residuals else 0.0,
        "tu_residual": max(rec.tu_residuals.values()),
    }


_SUITES: dict[str, tuple[Callable, Callable]] = {
    "exact-sequence": (_draw_exact_sequence, _check_exact_sequence),
    "perturbation-chain": (_draw_perturbation_chain, _check_perturbation_chain),
    "product-chain": (_draw_product_chain, _check_product_chain),
    "drazin-axioms": (_draw_planted_endo, _check_drazin_axioms),
    "commuting-drazin": (_draw_commuting_drazin, _check_commuting_drazin),
    "dual": (_draw_planted_endo, _check_dual),
    "browder": (_draw_browder, _check_browder),
    "bouldin": (_draw_bouldin, _check_bouldin),
    "closed-sum": (_draw_closed_sum, _check_closed_sum),
    "banach-perturbation": (_draw_banach_perturbation, _check_banach_perturbation),
    "banach-product": (_draw_banach_product, _check_banach_product),
}
# each suite's draw, and its check: the part that runs once per built instance
DRAWS: dict[str, Callable] = {name: draw for name, (draw, _) in _SUITES.items()}
SUITES: dict[str, Callable] = {name: check for name, (_, check) in _SUITES.items()}
SUITE_NAMES = tuple(SUITES)

# instances drawn and built together; no output depends on it, and it
# bounds how many instances a run holds at once
BATCH = 20


def run_suite(name: str, cfg: RunConfig) -> dict[str, Any]:
    """All instances of one suite; per-metric worst values and failures.

    Each chunk of at most ``BATCH`` instances is drawn in index order,
    each instance from its own index-keyed stream, built in one
    :func:`randgen.build` call and checked in index order.  A failed draw
    or check is recorded against its instance.  A LAPACK error inside a
    batch build belongs to no instance, so it propagates (``main`` exits 3).
    """
    if name not in SUITES:
        raise DataError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    worst: dict[str, float] = {}
    failures = []
    for start in range(0, cfg.n, BATCH):
        indices, chunk = range(start, min(start + BATCH, cfg.n)), {}
        for idx in indices:
            try:
                chunk[idx] = DRAWS[name](_rng_for(cfg.seed, idx), cfg)
            except (ModopError, np.linalg.LinAlgError) as exc:
                chunk[idx] = exc
        drawn = [idx for idx, inst in chunk.items() if not isinstance(inst, Exception)]
        chunk.update(zip(drawn, randgen.build([chunk[idx] for idx in drawn])))
        for idx in indices:
            inst = chunk.pop(idx)  # an instance, and what its check cached, leaves after it
            try:
                if isinstance(inst, Exception):
                    raise inst
                metrics = SUITES[name](inst, cfg)
            except (ModopError, np.linalg.LinAlgError) as exc:
                failures.append({"instance": idx, "error": f"{type(exc).__name__}: {exc}"})
                continue
            for key, val in metrics.items():
                if not math.isfinite(val):
                    continue
                if key not in worst or abs(val) > abs(worst[key]):
                    worst[key] = float(val)
    payload = {
        "suite": name,
        "config": cfg.echo(),
        "passes": cfg.n - len(failures),
        "failures": failures,
        "worst": worst,
    }
    if cfg.n == 0:
        payload["warning"] = "no instances requested; vacuous pass"
    return payload


# ---------------------------------------------------------------------------
# one-operator and two-operand commands


def _analyze_bundle(f: AdjointableMap, tol: ToleranceConfig) -> dict[str, Any]:
    rep = fredholm.fredholm_report(f, tol)
    bundle: dict[str, Any] = {
        "operator": serialize.report_to_jsonable(f),
        "fredholm": serialize.report_to_jsonable(rep),
    }
    if f.is_endomorphism:
        bundle["drazin"] = serialize.report_to_jsonable(drazin.drazin_inverse(f, tol))
        bundle["power_stabilization"] = serialize.report_to_jsonable(
            fredholm.b_fredholm_report(f, tol)
        )
    else:
        bundle["drazin"] = None
        bundle["power_stabilization"] = None
        bundle["note"] = "Drazin/power-chain analysis requires an endomorphism"
    bundle["kernel_image_geometry"] = serialize.report_to_jsonable(
        geometry.closed_sum_report(rep.image, rep.kernel, tol, samples=0)
        if f.is_endomorphism
        else None
    )
    return bundle


def cmd_analyze(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[Any, int]:
    f = serialize.load_operator(args.operator)
    return _analyze_bundle(f, tol), EXIT_OK


def cmd_drazin(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[Any, int]:
    f = serialize.load_operator(args.operator)
    if not f.is_endomorphism:
        raise DataError(
            f"{args.operator}: Drazin inversion needs an endomorphism, got A^{f.m} -> A^{f.n}"
        )
    rep = drazin.drazin_inverse(f, tol)
    payload = serialize.report_to_jsonable(rep)
    payload["ascent"] = rep.p  # the power chain's one index
    payload["block_structure"] = {
        "range_k0": list(rep.range_space.k0().entries),
        "null_k0": list(rep.null_space.k0().entries),
    }
    return payload, EXIT_OK


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DataError(f"--seed must be >= 0, got {seed}")


def cmd_geometry(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[Any, int]:
    _check_seed(args.seed)
    left = serialize.load_geometry_operand(args.left, tol)
    right = serialize.load_geometry_operand(args.right, tol)
    if isinstance(left, AdjointableMap):
        left = left.image(tol)
    if isinstance(right, AdjointableMap):
        right = right.kernel(tol)
    if left.shape != right.shape or left.m != right.m:
        raise DataError(
            f"operands live in different modules: A^{left.m} over {left.shape} "
            f"({args.left}) and A^{right.m} over {right.shape} ({args.right})"
        )
    rep = geometry.closed_sum_report(left, right, tol, rng=np.random.default_rng(args.seed))
    payload = serialize.report_to_jsonable(rep)
    payload["left"] = serialize.report_to_jsonable(left)
    payload["right"] = serialize.report_to_jsonable(right)
    return payload, EXIT_OK


def cmd_banach(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[Any, int]:
    t_map = serialize.load_operator(args.operator)
    f_map = serialize.load_operator(args.perturbation) if args.perturbation else None
    if f_map is not None and (f_map.shape, f_map.m, f_map.n) != (t_map.shape, t_map.m, t_map.n):
        raise DataError(
            f"{args.perturbation}: the perturbation maps A^{f_map.m} -> A^{f_map.n} over "
            f"{f_map.shape}, the operator A^{t_map.m} -> A^{t_map.n} over {t_map.shape}"
        )
    reg = banach.make_regular_orthogonal(t_map, tol)
    payload: dict[str, Any] = {
        "regular": serialize.report_to_jsonable(reg),
        "generalized_weyl": banach.generalized_weyl_banach(reg),
        "witness": serialize.report_to_jsonable(banach.defect_witness(reg)),
    }
    if f_map is not None:
        rec = banach.banach_perturbation(reg, f_map, tol)
        payload["perturbation"] = serialize.report_to_jsonable(rec)
    return payload, EXIT_OK


def cmd_probe(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[Any, int]:
    try:
        sizes = [int(s) for s in str(args.sizes).split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise DataError(f"--sizes needs integers >= 1 (e.g. 4,8,16), got {args.sizes!r}")
    try:
        diag = probes.family_table(args.family, sizes, tol)
    except StructureError as exc:  # a size the family cannot be built at
        raise DataError(f"{exc} (--sizes {args.sizes!r} for {args.family})") from None
    return serialize.report_to_jsonable(diag), EXIT_OK


def cmd_verify(args: argparse.Namespace, tol: ToleranceConfig) -> tuple[Any, int]:
    if args.n < 0:
        raise DataError(f"--n must be >= 0, got {args.n}")
    _check_seed(args.seed)
    cfg = RunConfig(seed=args.seed, n=args.n, shape=args.shape, tol=tol)
    try:
        cfg.algebra  # parsed once, here; every instance reads it
    except StructureError as exc:
        raise DataError(f'{exc} (e.g. --shape "2,3" or "1^8")') from None
    payload = run_suite(args.suite, cfg)
    code = EXIT_OK if not payload["failures"] else EXIT_VIOLATION
    return payload, code


# ---------------------------------------------------------------------------
# rendering


def _render_text(payload: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(payload, dict):
        for key in sorted(payload, key=str):
            val = payload[key]
            if isinstance(val, (dict, list)) and val and not _is_scalar_list(val):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(val)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(item)}")
    else:
        lines.append(f"{pad}{_scalar_text(payload)}")
    return lines


def _is_scalar_list(val: Any) -> bool:
    return isinstance(val, list) and all(not isinstance(v, (dict, list)) for v in val)


def _scalar_text(val: Any) -> str:
    if isinstance(val, float):
        return f"{val:.16e}"
    if isinstance(val, list):
        return "[" + ", ".join(_scalar_text(v) for v in val) + "]"
    return str(val)


def _probe_csv(payload: dict) -> str:
    cols = ["n", "gamma_f", "gamma_f2", "c0", "delta", "bouldin_margin"]
    field_of = {
        "n": "sizes",
        "gamma_f": "gamma_f",
        "gamma_f2": "gamma_f2",
        "c0": "c0",
        "delta": "delta",
        "bouldin_margin": "bouldin_margins",
    }
    lines = [",".join(cols)]
    for i in range(len(payload["sizes"])):
        row = []
        for c in cols:
            v = payload[field_of[c]][i]
            row.append(str(v) if c == "n" else f"{v:.16e}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _emit(payload: Any, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = serialize.dumps_canonical(payload) + "\n"
    elif fmt == "csv":  # only ``probe`` accepts it
        text = _probe_csv(payload)
    else:
        text = "\n".join(_render_text(payload)) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DataError(f"{out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: immutable configuration, and
    ``parse_args`` returns a fresh namespace on every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=None, help="override rank cutoff")
    common.add_argument("--tol-angle", type=float, default=None, help="override angle tolerance")
    common.add_argument("--out", default=None, help="write output to this path")

    parser = argparse.ArgumentParser(
        prog="modop",
        description="Classification reports and property suites for block-algebra operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, seed=False, csv=False):
        p = sub.add_parser(name, parents=[common], help=help)
        if seed:
            p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        formats = ("text", "json", "csv") if csv else ("text", "json")
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.set_defaults(func=func)
        return p

    p = command("analyze", cmd_analyze, "full report bundle for an operator file")
    p.add_argument("operator", help="operator JSON file")

    p = command("verify", cmd_verify, "run a seeded property suite", seed=True)
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--n", type=int, default=20, help="instance count (default 20)")
    p.add_argument("--shape", default="2,3", help='algebra shape, e.g. "2,3" or "1^8"')

    p = command("probe", cmd_probe, "decay table for an operator family", csv=True)
    p.add_argument("family", choices=probes.FAMILY_NAMES)
    p.add_argument("--sizes", default="4,8,16,32", help="comma-separated sizes")

    p = command("drazin", cmd_drazin, "core-nilpotent report for an operator file")
    p.add_argument("operator", help="operator JSON file")

    p = command(
        "geometry", cmd_geometry, "pair geometry from submodule or operator files", seed=True
    )
    p.add_argument("left", help="submodule file, or operator file (its image is used)")
    p.add_argument("right", help="submodule file, or operator file (its kernel is used)")

    p = command("banach", cmd_banach, "regular-operator certificate")
    p.add_argument("operator", help="operator JSON file")
    p.add_argument("perturbation", nargs="?", default=None, help="optional perturbation file")
    return parser


def _tol_from(args: argparse.Namespace) -> ToleranceConfig:
    tol = DEFAULT_TOL
    if args.tol_rank is not None:
        tol = replace(tol, rank_tol=args.tol_rank)
    if args.tol_angle is not None:
        tol = replace(tol, angle_tol=args.tol_angle)
    return tol


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args, _tol_from(args))
        _emit(payload, args.format, args.out)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModopError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED if isinstance(exc, IllConditionedError) else EXIT_VIOLATION
    except np.linalg.LinAlgError as exc:
        print(f"error: LAPACK failed: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    return code


if __name__ == "__main__":
    sys.exit(main())
