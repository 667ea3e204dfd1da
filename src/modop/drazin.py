"""Ascent, descent, Drazin inversion, and Browder decompositions.

The Drazin inverse is computed from the structure that makes it exist:
once the image chain stabilises at exponent p, the module splits
(obliquely, in general) as Im F^p +' ker F^p with F invertible on the
first summand and nilpotent on the second.  p (the descent), the ascent
and both summands come from the image and kernel staircases of the
map's power chain, never from explicit powers.  Everything here works
blockwise on the compressed matrices, so the splitting, the inverse,
and the core/nilpotent parts all stay inside the category of module
maps by construction.

The conditioning of the oblique change of basis is reported on every
result: it is the closedness margin of the decomposition and the lever
by which all residuals should be judged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolation, StructureError
from .linmap import AdjointableMap, commutator_residual
from .modules import K0Class, Submodule, flat_dim
from .subspace import op_norm, svd_data
from .tolerances import DEFAULT_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "DrazinReport",
    "DualityReport",
    "CriterionReport",
    "BrowderWitness",
    "CommutingBrowderReport",
    "ShiftExampleReport",
    "ascent",
    "descent",
    "drazin_inverse",
    "drazin_dual_check",
    "commuting_drazin_criterion",
    "browder_decomposition",
    "commuting_browder_check",
    "shift_counterexample",
]


# ---------------------------------------------------------------------------
# ascent / descent


def ascent(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Least p with ker F^p = ker F^(p+1), from the kernel staircase."""
    return f.power_chain(tol).ascent


def descent(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Least p with Im F^p = Im F^(p+1), from the image staircase."""
    return f.power_chain(tol).descent


# ---------------------------------------------------------------------------
# core-nilpotent splitting (shared by drazin_inverse / browder ops)


@dataclass(frozen=True)
class _Split:
    """Per-block oblique change of basis onto Im F^p +' ker F^p."""

    p: int
    range_space: Submodule
    null_space: Submodule
    s_mats: tuple[Array, ...]
    s_invs: tuple[Array, ...]
    ranks: tuple[int, ...]
    cond: float
    margin: float


def _core_split(f: AdjointableMap, tol: ToleranceConfig) -> _Split:
    chain = f.power_chain(tol)
    p = chain.descent
    rng_space, nul_space = chain.image(p), chain.kernel(p)
    s_mats, s_invs, ranks = [], [], []
    cond = 1.0
    for b, (u, v) in enumerate(zip(rng_space.column_bases, nul_space.column_bases)):
        s = np.hstack([u, v])
        if s.shape[0] != s.shape[1]:
            raise IdentityViolation(
                f"block {b}: Im F^p and ker F^p do not fill the space "
                f"({u.shape[1]} + {v.shape[1]} != {s.shape[0]})"
            )
        sv = svd_data(s, tol, scale=1.0)
        if sv.rank < s.shape[0]:
            raise IdentityViolation(f"block {b}: splitting bases are numerically dependent")
        cond = max(cond, sv.values[0] / sv.values[-1])
        s_mats.append(s)
        s_invs.append(np.linalg.inv(s))
        ranks.append(u.shape[1])
    return _Split(
        p=p,
        range_space=rng_space,
        null_space=nul_space,
        s_mats=tuple(s_mats),
        s_invs=tuple(s_invs),
        ranks=tuple(ranks),
        cond=cond,
        margin=chain.margin,
    )


@dataclass(frozen=True, eq=False)
class DrazinReport:
    """Core-nilpotent data of an endomorphism.

    ``drazin_inverse`` inverts the core block on ``range_space`` and
    vanishes on ``null_space``; ``core_part + nilpotent_part`` recovers
    the map exactly.  ``splitting_cond`` is the condition number of the
    oblique change of basis — the closedness margin of the splitting.
    """

    p: int
    drazin_inverse: AdjointableMap
    core_part: AdjointableMap
    nilpotent_part: AdjointableMap
    spectral_projector: AdjointableMap
    range_space: Submodule
    null_space: Submodule
    core_gamma: float
    splitting_cond: float
    residuals: dict[str, float] = field(default_factory=dict)
    margin: float = math.inf

    @property
    def decomposition(self) -> tuple[Submodule, Submodule]:
        return self.range_space, self.null_space


def drazin_inverse(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> DrazinReport:
    if not f.is_endomorphism:
        raise StructureError("Drazin inversion needs an endomorphism")
    split = _core_split(f, tol)
    p = split.p
    nf = max(f.norm(), 1e-300)
    f1s, _, core_gamma, off_resid = _browder_blocks(f, split)
    x_blocks, e_blocks = [], []
    for f1, s, sinv, r in zip(f1s, split.s_mats, split.s_invs, split.ranks):
        y = np.zeros_like(s)
        e = np.zeros_like(s)
        if r:
            y[:r, :r] = np.linalg.inv(f1)
            e[:r, :r] = np.eye(r)
        x_blocks.append(s @ y @ sinv)
        e_blocks.append(s @ e @ sinv)
    x = AdjointableMap(f.shape, f.m, f.m, tuple(x_blocks))
    proj = AdjointableMap(f.shape, f.m, f.m, tuple(e_blocks))
    core = f @ proj
    nilp = f - core

    nx = x.norm()
    r_xfx = (x @ f @ x - x).norm() / max(nx, 1e-300) if nx > 0 else 0.0
    r_comm = (f @ x - x @ f).norm() / max(nf * nx, 1e-300) if nx > 0 else 0.0
    # ||F^(p+1) X - F^p|| / ||F||^p and ||N^p|| / ||F||^p, on F/||F|| and
    # N/||F|| so that no power of the norm is formed.
    gp = ((1.0 / nf) * f).power(p)
    r_power = (gp @ (f @ x) - gp).norm()
    r_nilp = 0.0 if p == 0 else ((1.0 / nf) * nilp).power(p).norm()
    return DrazinReport(
        p=p,
        drazin_inverse=x,
        core_part=core,
        nilpotent_part=nilp,
        spectral_projector=proj,
        range_space=split.range_space,
        null_space=split.null_space,
        core_gamma=core_gamma,
        splitting_cond=split.cond,
        residuals={
            "xfx_minus_x": float(r_xfx),
            "commutator": float(r_comm),
            "power_identity": float(r_power),
            "nilpotency": float(r_nilp),
            "off_diagonal": float(off_resid),
        },
        margin=split.margin,
    )


# ---------------------------------------------------------------------------
# duality under the adjoint


@dataclass(frozen=True, eq=False)
class DualityReport:
    """The Drazin structure transported through the adjoint."""

    p: int
    p_adjoint: int
    inverse_residual: float
    orthogonality_residuals: tuple[float, ...]  # ker (F*)^k vs (Im F^k)^perp, k = 1..p


def drazin_dual_check(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> DualityReport:
    fstar = f.adjoint()
    rep = drazin_inverse(f, tol)
    rep_adj = drazin_inverse(fstar, tol)
    if rep.p != rep_adj.p:
        raise IdentityViolation(f"Drazin index differs under adjoint: {rep.p} vs {rep_adj.p}")
    denom = max(rep.drazin_inverse.norm(), 1e-300)
    resid = (rep.drazin_inverse.adjoint() - rep_adj.drazin_inverse).norm() / denom
    if resid > tol.residual_tol * max(1.0, rep.splitting_cond * rep_adj.splitting_cond):
        raise IdentityViolation(f"(F^D)* differs from (F*)^D by relative {resid:.3e}")
    chain, chain_adj = f.power_chain(tol), fstar.power_chain(tol)
    orth: list[float] = []
    for k in range(1, rep.p + 1):
        worst = chain_adj.kernel(k).equality_defect(chain.image(k).complement())
        orth.append(worst)
        if worst > tol.angle_tol:
            raise IdentityViolation(
                f"ker (F*)^{k} is not the orthocomplement of Im F^{k} (defect {worst:.3e})"
            )
    return DualityReport(
        p=rep.p,
        p_adjoint=rep_adj.p,
        inverse_residual=float(resid),
        orthogonality_residuals=tuple(orth),
    )


# ---------------------------------------------------------------------------
# the commuting-pair stabilization criterion


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Search record for the two power-intersection stabilization conditions.

    ``found`` is the lexicographically first (s, t, k, k') with p <= k <= k'
    such that Im F^k ∩ ker D^p stops moving when k grows by s, and the
    adjoint-side chain does the same at (k', t).  ``verdict`` must agree
    with the direct Drazin test of F.
    """

    p: int
    found: tuple[int, int, int, int] | None
    intersection_classes: tuple[K0Class, ...]
    adjoint_classes: tuple[K0Class, ...]
    verdict: bool
    direct_verdict: bool
    commutator_residual: float


def commuting_drazin_criterion(
    f: AdjointableMap, d: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> CriterionReport:
    comm = commutator_residual(f, d, tol)

    p = (f @ d).power_chain(tol).descent
    dim = flat_dim(f.shape, f.m)
    ker_dp = d.power_chain(tol).kernel(p)
    ker_dp_adj = d.adjoint().power_chain(tol).kernel(p)

    def meets(g: AdjointableMap, ker: Submodule) -> list[Submodule]:
        """Im G^k ∩ ker for k = 0 .. 2 dim, one intersection per distinct image."""
        chain = g.power_chain(tol)
        distinct = [chain.image(k).intersection(ker, tol)[0] for k in range(chain.descent + 1)]
        return [distinct[min(k, chain.descent)] for k in range(2 * dim + 1)]

    meets_f = meets(f, ker_dp)
    meets_fadj = meets(f.adjoint(), ker_dp_adj)

    def period(seq: list[Submodule], k: int) -> int | None:
        """Least s <= dim with seq[k] = seq[k + s], if any."""
        return next((s for s in range(1, dim + 1) if seq[k].equals(seq[k + s], tol)), None)

    found: tuple[int, int, int, int] | None = None
    for k in range(p, dim + 1):
        s = period(meets_f, k)
        if s is None:
            continue
        hits = ((period(meets_fadj, kp), kp) for kp in range(k, dim + 1))
        t, kp = next(((t, kp) for t, kp in hits if t is not None), (None, None))
        if t is not None:
            found = (s, t, k, kp)
            break

    direct = drazin_inverse(f, tol)
    direct_verdict = all(
        v <= tol.residual_tol * max(1.0, direct.splitting_cond)
        for name, v in direct.residuals.items()
        if name != "off_diagonal"
    )
    verdict = found is not None
    if verdict != direct_verdict:
        raise IdentityViolation(
            f"criterion verdict {verdict} disagrees with the direct test {direct_verdict}"
        )
    return CriterionReport(
        p=p,
        found=found,
        intersection_classes=tuple(m.k0() for m in meets_f[p : dim + 1]),
        adjoint_classes=tuple(m.k0() for m in meets_fadj[p : dim + 1]),
        verdict=verdict,
        direct_verdict=direct_verdict,
        commutator_residual=float(comm),
    )


# ---------------------------------------------------------------------------
# Browder decompositions


@dataclass(frozen=True, eq=False)
class BrowderWitness:
    """Invariant splitting M +' N with F invertible on M and the
    complement finitely generated (automatic here, still recorded)."""

    range_space: Submodule
    null_space: Submodule
    f1_blocks: tuple[Array, ...]
    f4_blocks: tuple[Array, ...]
    gamma_f1: float
    off_diagonal_residual: float
    splitting_cond: float
    finitely_generated: bool = True

    @property
    def decomposition(self) -> tuple[Submodule, Submodule]:
        return self.range_space, self.null_space


def _browder_blocks(
    f: AdjointableMap, split: _Split
) -> tuple[tuple[Array, ...], tuple[Array, ...], float, float]:
    """Diagonal blocks of F on the split, the smallest singular value of the
    core blocks, and the largest off-diagonal block relative to ||F||."""
    nf = max(f.norm(), 1e-300)
    f1s, f4s = [], []
    gamma = math.inf
    off_resid = 0.0
    for c, s, sinv, r in zip(f.blocks, split.s_mats, split.s_invs, split.ranks):
        t = sinv @ c @ s
        f1, f4 = t[:r, :r], t[r:, r:]
        f1s.append(f1)
        f4s.append(f4)
        if r:
            gamma = min(gamma, float(np.linalg.svd(f1, compute_uv=False)[-1]))
        if 0 < r < t.shape[0]:
            off_resid = max(
                off_resid, max(op_norm(t[:r, r:]), op_norm(t[r:, :r])) / nf
            )
    return tuple(f1s), tuple(f4s), gamma, off_resid


def browder_decomposition(
    f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> BrowderWitness:
    if not f.is_endomorphism:
        raise StructureError("Browder decomposition needs an endomorphism")
    split = _core_split(f, tol)
    f1s, f4s, gamma, off = _browder_blocks(f, split)
    if off > tol.residual_tol * max(1.0, split.cond):
        raise IdentityViolation(
            f"power splitting is not invariant under F (off-diagonal {off:.3e})"
        )
    return BrowderWitness(
        range_space=split.range_space,
        null_space=split.null_space,
        f1_blocks=f1s,
        f4_blocks=f4s,
        gamma_f1=gamma,
        off_diagonal_residual=off,
        splitting_cond=split.cond,
    )


@dataclass(frozen=True, eq=False)
class CommutingBrowderReport:
    """Both factors of a commuting product, certified on the product's
    own stable splitting."""

    p: int
    range_space: Submodule
    null_space: Submodule
    witness_f: BrowderWitness
    witness_d: BrowderWitness
    kernel_identity_defect: float
    commutator_residual: float


def commuting_browder_check(
    f: AdjointableMap, d: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> CommutingBrowderReport:
    comm = commutator_residual(f, d, tol)
    df = d @ f
    split = _core_split(df, tol)
    p = split.p

    def _witness(g: AdjointableMap) -> BrowderWitness:
        g1s, g4s, gamma, off = _browder_blocks(g, split)
        if off > tol.residual_tol * max(1.0, split.cond):
            raise IdentityViolation(
                f"factor is not block-diagonal on the shared splitting (off {off:.3e})"
            )
        for b, (g1, r) in enumerate(zip(g1s, split.ranks)):
            if r == 0:
                continue
            if svd_data(g1, tol, dim_ctx=r, scale=g.norm()).rank < r:
                raise IdentityViolation(f"block {b}: factor not invertible on the stable range")
        return BrowderWitness(
            range_space=split.range_space,
            null_space=split.null_space,
            f1_blocks=g1s,
            f4_blocks=g4s,
            gamma_f1=gamma,
            off_diagonal_residual=off,
            splitting_cond=split.cond,
        )

    wit_f = _witness(f)
    wit_d = _witness(d)

    # ker F^k D^k = D^-k(ker F^k): k preimage steps through D from F's
    # kernel staircase, apart from the product's own chain.
    def ker_fd_power(k: int) -> Submodule:
        sub = f.power_chain(tol).kernel(k)
        for _ in range(k):
            sub = d.preimage_step(sub, tol)[0]
        return sub

    defect = ker_fd_power(p).equality_defect(ker_fd_power(p + 1))
    if defect > tol.angle_tol:
        raise IdentityViolation(
            f"kernel identity ker F^p D^p = ker F^(p+1) D^(p+1) fails (defect {defect:.3e})"
        )
    return CommutingBrowderReport(
        p=p,
        range_space=split.range_space,
        null_space=split.null_space,
        witness_f=wit_f,
        witness_d=wit_d,
        kernel_identity_defect=float(defect),
        commutator_residual=float(comm),
    )


# ---------------------------------------------------------------------------
# truncated-shift counterexample family


@dataclass(frozen=True, eq=False)
class ShiftExampleReport:
    """Finite shadow of the one-sided shift: an isomorphism block next to
    a truncated shift.

    The power chain is strictly monotone up to depth n and only then
    stabilises — the depth grows with n, which is how the genuinely
    infinite phenomenon (no stabilisation at all) appears in a finite
    model.  The commuting projection P keeps FP Drazin invertible the
    whole time.
    """

    kind: str
    n: int
    f: AdjointableMap
    projection: AdjointableMap
    chain_dims: tuple[int, ...]
    strict_depth: int
    stabilization_depth: int
    fp_drazin_index: int
    commutation_residual: float


def shift_counterexample(
    kind: str, n: int, tol: ToleranceConfig = DEFAULT_TOL
) -> ShiftExampleReport:
    if kind not in ("range-strict", "kernel-strict"):
        raise StructureError(f"unknown kind {kind!r}")
    if n < 2:
        raise StructureError("need n >= 2")
    from .algebra import AlgebraShape

    shape = AlgebraShape((n,))
    shift = np.diag(np.ones(n - 1), 1).astype(complex)
    iso = np.eye(n, dtype=complex) + 0.5 * shift
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    c[:n, :n] = iso
    c[n:, n:] = shift
    f = AdjointableMap(shape, 2, 2, (c,))
    if kind == "kernel-strict":
        f = f.adjoint()
    p_mat = np.zeros((2 * n, 2 * n), dtype=complex)
    p_mat[:n, :n] = np.eye(n)
    proj = AdjointableMap(shape, 2, 2, (p_mat,))

    comm = (f @ proj - proj @ f).norm() / max(f.norm(), 1e-300)
    fp_report = drazin_inverse(f @ proj, tol)

    # The staircases grow strictly up to their plateau, so the strict depth
    # and the stabilization exponent are both the descent (or ascent).
    chain = f.power_chain(tol)
    depth, step = (
        (chain.descent, chain.image) if kind == "range-strict" else (chain.ascent, chain.kernel)
    )
    if depth != n:
        raise IdentityViolation(f"shift chain malformed: stabilization exponent {depth}, expected {n}")
    return ShiftExampleReport(
        kind=kind,
        n=n,
        f=f,
        projection=proj,
        chain_dims=tuple(step(k).dim for k in range(n + 2)),
        strict_depth=depth,
        stabilization_depth=depth,
        fp_drazin_index=fp_report.p,
        commutation_residual=float(comm),
    )
