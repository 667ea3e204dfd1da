"""Ascent, descent, Drazin inversion, and Browder decompositions.

The Drazin inverse is computed from the structure that makes it exist:
once the power images stabilise at exponent p, the module splits
(obliquely, in general) as Im F^p +' ker F^p with F invertible on the
first summand and nilpotent on the second.  Everything here works
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
from .fredholm import _power_rank_chain
from .linmap import AdjointableMap, commutator_residual
from .modules import K0Class, Submodule, flat_dim
from .subspace import null_space, op_norm, orthonormal_image, subspace_equal, svd_data
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


def _stabilization_exponent(f: AdjointableMap, tol: ToleranceConfig) -> tuple[int, float]:
    ranks, _, margin = _power_rank_chain(f, tol)
    return len(ranks) - 2, margin


def ascent(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Least p with ker F^p = ker F^(p+1) (bounded by the dimension)."""
    if not f.is_endomorphism:
        raise StructureError("ascent needs an endomorphism")
    p, _ = _stabilization_exponent(f, tol)
    nf = max(f.norm(), 1e-300)
    ker_p = f.power(p).kernel(tol, scale=nf**p)
    ker_p1 = f.power(p + 1).kernel(tol, scale=nf ** (p + 1))
    if not ker_p.equals(ker_p1, tol):
        raise IdentityViolation("kernel chain not actually stable at the rank plateau")
    return p


def descent(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Least p with Im F^p = Im F^(p+1) (bounded by the dimension)."""
    if not f.is_endomorphism:
        raise StructureError("descent needs an endomorphism")
    p, _ = _stabilization_exponent(f, tol)
    nf = max(f.norm(), 1e-300)
    im_p = f.power(p).image(tol, scale=nf**p)
    im_p1 = f.power(p + 1).image(tol, scale=nf ** (p + 1))
    if not im_p.equals(im_p1, tol):
        raise IdentityViolation("image chain not actually stable at the rank plateau")
    return p


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
    p, chain_margin = _stabilization_exponent(f, tol)
    nf = max(f.norm(), 1e-300)
    fp = f.power(p)
    rng_space = fp.image(tol, scale=nf**p)
    nul_space = fp.kernel(tol, scale=nf**p)
    s_mats, s_invs, ranks = [], [], []
    cond = 1.0
    for b, c in enumerate(fp.blocks):
        u, _ = orthonormal_image(c, tol, scale=nf**p)
        v, _ = null_space(c, tol, scale=nf**p)
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
        margin=chain_margin,
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
    x_blocks, e_blocks = [], []
    core_gamma = math.inf
    off_resid = 0.0
    for c, s, sinv, r in zip(f.blocks, split.s_mats, split.s_invs, split.ranks):
        t = sinv @ c @ s
        f1 = t[:r, :r]
        if r:
            sv1 = np.linalg.svd(f1, compute_uv=False)
            core_gamma = min(core_gamma, float(sv1[-1]))
        if r < t.shape[0] and r:
            off = max(op_norm(t[:r, r:]), op_norm(t[r:, :r]))
            off_resid = max(off_resid, off / nf)
        y = np.zeros_like(t)
        e = np.zeros_like(t)
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
    fp = f.power(p)
    r_power = (f.power(p + 1) @ x - fp).norm() / max(nf**p, 1e-300)
    r_nilp = 0.0 if p == 0 else nilp.power(p).norm() / max(nf**p, 1e-300)
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
    rep = drazin_inverse(f, tol)
    rep_adj = drazin_inverse(f.adjoint(), tol)
    if rep.p != rep_adj.p:
        raise IdentityViolation(f"Drazin index differs under adjoint: {rep.p} vs {rep_adj.p}")
    denom = max(rep.drazin_inverse.norm(), 1e-300)
    resid = (rep.drazin_inverse.adjoint() - rep_adj.drazin_inverse).norm() / denom
    if resid > tol.residual_tol * max(1.0, rep.splitting_cond * rep_adj.splitting_cond):
        raise IdentityViolation(f"(F^D)* differs from (F*)^D by relative {resid:.3e}")
    nf = max(f.norm(), 1e-300)
    fstar = f.adjoint()
    orth: list[float] = []
    for k in range(1, rep.p + 1):
        ker_k = fstar.power(k).kernel(tol, scale=nf**k)
        im_perp = f.power(k).image(tol, scale=nf**k).complement()
        ok = ker_k.equals(im_perp, tol)
        worst = ker_k.equality_defect(im_perp)
        orth.append(worst)
        if not ok:
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


def _power_images(
    f: AdjointableMap, upto: int, tol: ToleranceConfig
) -> list[Submodule]:
    """Im F^0 .. Im F^upto, reusing the plateau once ranks stabilise."""
    nf = max(f.norm(), 1e-300)
    images: list[Submodule] = [Submodule.full(f.shape, f.m)]
    power = AdjointableMap.identity(f.shape, f.m)
    for k in range(1, upto + 1):
        power = power @ f
        img = power.image(tol, scale=nf**k)
        if img.dim == images[-1].dim:
            images.extend([img] * (upto - k + 1))
            break
        images.append(img)
    return images[: upto + 1]


def commuting_drazin_criterion(
    f: AdjointableMap, d: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> CriterionReport:
    comm = commutator_residual(f, d, tol)

    fd = f @ d
    p, _ = _stabilization_exponent(fd, tol)
    dim = flat_dim(f.shape, f.m)
    nd = max(d.norm(), 1e-300)
    ker_dp = d.power(p).kernel(tol, scale=nd**p)
    ker_dp_adj = d.adjoint().power(p).kernel(tol, scale=nd**p)

    images_f = _power_images(f, 2 * dim, tol)
    images_fadj = _power_images(f.adjoint(), 2 * dim, tol)

    def meets(images: list[Submodule], ker: Submodule) -> list[Submodule]:
        return [images[k].intersection(ker, tol)[0] for k in range(len(images))]

    meets_f = meets(images_f, ker_dp)
    meets_fadj = meets(images_fadj, ker_dp_adj)

    found: tuple[int, int, int, int] | None = None
    for k in range(p, dim + 1):
        hit_s = None
        for s in range(1, dim + 1):
            if meets_f[k].equals(meets_f[k + s], tol):
                hit_s = s
                break
        if hit_s is None:
            continue
        for kp in range(k, dim + 1):
            hit_t = None
            for t in range(1, dim + 1):
                if meets_fadj[kp].equals(meets_fadj[kp + t], tol):
                    hit_t = t
                    break
            if hit_t is not None:
                found = (hit_s, hit_t, k, kp)
                break
        if found is not None:
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
    f: AdjointableMap, split: _Split, tol: ToleranceConfig
) -> tuple[tuple[Array, ...], tuple[Array, ...], float, float]:
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
    f1s, f4s, gamma, off = _browder_blocks(f, split, tol)
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
        g1s, g4s, gamma, off = _browder_blocks(g, split, tol)
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

    nf, nd = max(f.norm(), 1e-300), max(d.norm(), 1e-300)
    lhs = f.power(p) @ d.power(p)
    rhs = f.power(p + 1) @ d.power(p + 1)
    ker_lhs = lhs.kernel(tol, scale=nf**p * nd**p)
    ker_rhs = rhs.kernel(tol, scale=nf ** (p + 1) * nd ** (p + 1))
    defect = ker_lhs.equality_defect(ker_rhs)
    if not ker_lhs.equals(ker_rhs, tol):
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

    nf = max(f.norm(), 1e-300)
    dims: list[int] = []
    power = AdjointableMap.identity(shape, 2)
    for k in range(0, n + 2):
        if k:
            power = power @ f
        if kind == "range-strict":
            dims.append(power.image(tol, scale=nf**k).dim)
        else:
            dims.append(power.kernel(tol, scale=nf**k).dim)
    strict_depth = 0
    for k in range(1, len(dims)):
        if dims[k] != dims[k - 1]:
            strict_depth = k
        else:
            break
    stabilization = next(k for k in range(len(dims) - 1) if dims[k] == dims[k + 1])
    if strict_depth != n or stabilization != n:
        raise IdentityViolation(
            f"shift chain malformed: strict depth {strict_depth}, "
            f"stabilization exponent {stabilization}, expected both = {n}"
        )
    return ShiftExampleReport(
        kind=kind,
        n=n,
        f=f,
        projection=proj,
        chain_dims=tuple(dims),
        strict_depth=strict_depth,
        stabilization_depth=stabilization,
        fp_drazin_index=fp_report.p,
        commutation_residual=float(comm),
    )
