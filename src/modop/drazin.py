"""Drazin inversion and Browder decompositions, read off the power chain.

The Drazin inverse is computed from the structure that makes it exist:
once the kernel chain stabilises at the index p, the module splits
(obliquely, in general) as Im F^p +' ker F^p with F invertible on the
first summand and nilpotent on the second.  p and both summands come
from the map's power chain, never from explicit powers, and the split
itself, with F certified block-diagonal on it and invertible on its
core, is the chain's own record (``PowerChain.split`` and
``PowerChain.core``), shared with power stabilization in
:mod:`modop.fredholm`.  Everything here works blockwise on the
compressed matrices, so the splitting, the inverse, and the
core/nilpotent parts all stay inside the category of module maps.

The conditioning of the oblique change of basis is reported on every
result: it is the closedness margin of the decomposition and the lever
by which all residuals should be judged; a numerically singular split or
a disagreeing staircase raises :class:`~modop.errors.IllConditionedError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolation, IllConditionedError, StructureError
from .linmap import AdjointableMap, BrowderWitness, PowerChain, _similar, commutator_residual
from .modules import K0Class, Submodule
from .subspace import Grouped, _cross, _eyes, _live, _top_singular, stacked
from .tolerances import DEFAULT_TOL, RESIDUAL_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "DrazinReport",
    "DualityReport",
    "CriterionReport",
    "CommutingBrowderReport",
    "drazin_inverse",
    "drazin_dual_check",
    "commuting_drazin_criterion",
    "commuting_browder_check",
]


# ---------------------------------------------------------------------------
# Drazin inverse


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


def drazin_inverse(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> DrazinReport:
    """F^D = S diag(F1^-1, 0) S^-1 on the split of F's power chain, where F
    is certified block-diagonal and invertible on the core.  Each of the four
    axiom residuals must stay within ``RESIDUAL_TOL`` times cond S, as
    ``PowerChain.witness`` gates the off-diagonal blocks."""
    if not f.is_endomorphism:
        raise StructureError("Drazin inversion needs an endomorphism")
    chain = f.power_chain(tol)
    split, core, p = chain.split, chain.core, chain.index
    nf = max(f.norm(), 1e-300)
    invs = stacked(np.linalg.inv, core.f1_blocks)
    x = _on_split(chain, invs)
    proj = _on_split(chain, invs.map(lambda inv: _eyes(len(inv), inv.shape[-1])))
    core_part = f @ proj
    nilp = f - core_part

    nx, gp = x.norm(), ((1.0 / nf) * f).power(p)
    residuals = {
        "xfx_minus_x": (x @ f @ x - x).norm() / max(nx, 1e-300) if nx > 0 else 0.0,
        "commutator": (f @ x - x @ f).norm() / max(nf * nx, 1e-300) if nx > 0 else 0.0,
        # ||F^(p+1) X - F^p|| / ||F||^p and ||N^p|| / ||F||^p, on F/||F|| and
        # N/||F|| so that no power of the norm is formed.
        "power_identity": (gp @ (f @ x) - gp).norm(),
        "nilpotency": 0.0 if p == 0 else ((1.0 / nf) * nilp).power(p).norm(),
    }
    worst = max(residuals, key=residuals.__getitem__)
    if residuals[worst] > RESIDUAL_TOL * split.cond:
        raise IdentityViolation(
            f"Drazin axiom residual {worst} = {residuals[worst]:.3e} above "
            f"RESIDUAL_TOL x cond S (cond S = {split.cond:.3e})"
        )
    return DrazinReport(
        p=p,
        drazin_inverse=x,
        core_part=core_part,
        nilpotent_part=nilp,
        spectral_projector=proj,
        range_space=split.range_space,
        null_space=split.null_space,
        core_gamma=core.gamma_f1,
        splitting_cond=split.cond,
        residuals={**residuals, "off_diagonal": float(core.off_diagonal_residual)},
        margin=chain.margin,
    )


def _on_split(chain: PowerChain, cores: Grouped) -> AdjointableMap:
    """S diag(C, 0) S^-1 on the chain's split Im F^p +' ker F^p, for per-block
    cores C grouped as the chain's F1 blocks: with C = F1^-1 the Drazin
    inverse, with C = I the spectral projector."""
    f, split = chain.f, chain.split
    padded = []
    for c, idx in zip(cores.stacks, cores.members):
        d, r = f.m * f.shape.block_sizes[idx[0]], c.shape[-1]
        z = np.zeros((len(idx), d, d), dtype=complex)
        z[:, :r, :r] = c
        padded.append(z)
    moved = stacked(_similar, split.s_mats, Grouped(padded, cores.members), split.s_invs)
    return AdjointableMap._of_groups(f.shape, f.m, f.m, moved)


# ---------------------------------------------------------------------------
# duality under the adjoint


@dataclass(frozen=True, eq=False)
class DualityReport:
    """The Drazin structure transported through the adjoint."""

    p: int
    inverse_residual: float
    orthogonality_residuals: tuple[float, ...]  # ker (F*)^k vs (Im F^k)^perp, k = 1..p


def drazin_dual_check(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> DualityReport:
    """Three gates on F and F*, read off their power chains (p, cond S and
    F^D = S diag(F1^-1, 0) S^-1; no Drazin residual is formed): equal
    indices, (F^D)* = (F*)^D within RESIDUAL_TOL cond S cond S*, and
    ker (F*)^k = (Im F^k)^perp for k = 1 .. p, measured by
    :func:`_orthocomplement_defect` without forming the complement."""
    # F is decided before F* is formed, so F* takes F's record over.  Both
    # splits are certified before the indices are compared: an index that
    # differs on an ill-conditioned input raises IllConditionedError there.
    chain = f.power_chain(tol)
    x = _on_split(chain, stacked(np.linalg.inv, chain.core.f1_blocks))
    chain_adj = f.adjoint().power_chain(tol)
    x_adj = _on_split(chain_adj, stacked(np.linalg.inv, chain_adj.core.f1_blocks))
    p = chain.index
    if p != chain_adj.index:
        raise IdentityViolation(f"Drazin index differs under adjoint: {p} vs {chain_adj.index}")
    resid = (x.adjoint() - x_adj).norm() / max(x.norm(), 1e-300)
    if resid > RESIDUAL_TOL * max(1.0, chain.split.cond * chain_adj.split.cond):
        raise IdentityViolation(f"(F^D)* differs from (F*)^D by relative {resid:.3e}")
    # The staircases agree in dimension (the indices match).  A close step
    # decision can still tilt either one by up to about angle_tol / margin:
    # that is the input's conditioning, not a bug.
    margin = min(1.0, chain.margin, chain_adj.margin)
    orth: list[float] = []
    for k in range(1, p + 1):
        worst = _orthocomplement_defect(chain.image(k), chain_adj.kernel(k))
        orth.append(worst)
        if worst > tol.angle_tol:
            message = f"ker (F*)^{k} is not the orthocomplement of Im F^{k} (defect {worst:.3e}"
            if worst * margin <= tol.angle_tol:
                raise IllConditionedError(f"{message}, chain margin {margin:.3e})")
            raise IdentityViolation(f"{message})")
    return DualityReport(
        p=p,
        inverse_residual=float(resid),
        orthogonality_residuals=tuple(orth),
    )


def _orthocomplement_defect(image: Submodule, kernel: Submodule) -> float:
    """dist(kernel, image^perp), +inf unless their widths fill every block.
    With Q_I, Q_K orthonormal bases of image and kernel, I - P_(image^perp)
    is P_I, so the sine of the largest principal angle (Golub & Van Loan,
    *Matrix Computations*, Thm 2.5.1) is ||P_I Q_K|| = ||Q_I^H Q_K||, the
    largest cross-Gram value."""
    qi, qk = image.groups, kernel.groups
    if [a + b for a, b in zip(qi.sizes(-1), qk.sizes(-1))] != qi.sizes(-2):
        return math.inf
    qi, qk = _live((qi, qk), lambda a, b: a.shape[-1] and b.shape[-1])
    return _top_singular(stacked(_cross, qi, qk))


# ---------------------------------------------------------------------------
# the commuting-pair stabilization criterion


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Where Im F^j ∩ ker D^p and its adjoint twin stop moving.

    p is the index of DF, and ``k`` the least j >= p with
    Im F^j ∩ ker D^p = Im F^(j+1) ∩ ker D^p.  In finite dimension k is
    exact: take the Fitting splitting of DF at p.  Where F is nilpotent
    and D invertible, ind F <= p.  D^p kills the part where F is
    invertible and D nilpotent, which lies in every Im F^j.  Where both
    are nilpotent, Im F^p ⊆ ker D^p, because D^p F^p = 0 there.  So for
    j >= p the meets fall strictly until j = max(p, ind F) and stay
    constant from there.  The pair (F*, D*) commutes with the same p, so
    the adjoint meets Im (F*)^j ∩ ker (D*)^p stop at the same index:
    k = k' = max(p, ind F), with period s = t = 1 (Drazin, Amer. Math.
    Monthly 65, 1958).  ``intersection_classes`` and ``adjoint_classes``
    are the classes of the meets for j = p .. k.
    """

    p: int
    k: int
    intersection_classes: tuple[K0Class, ...]
    adjoint_classes: tuple[K0Class, ...]
    commutator_residual: float


def commuting_drazin_criterion(
    f: AdjointableMap, d: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> CriterionReport:
    comm = commutator_residual(f, d)
    p = (f @ d).power_chain(tol).index

    def plateau(g: AdjointableMap, h: AdjointableMap) -> tuple[int, list[Submodule]]:
        """First j >= p with Im G^j ∩ ker H^p = Im G^(j+1) ∩ ker H^p, and the
        meets for j = p .. max(p, ind G), past which Im G^j is constant."""
        chain, ker = g.power_chain(tol), h.power_chain(tol).kernel(p)
        last = max(p, chain.index)
        meets = [chain.image(j).intersection(ker)[0] for j in range(p, last + 1)]
        k = next((p + i for i in range(last - p) if meets[i].equals(meets[i + 1], tol)), last)
        return k, meets

    k, meets_f = plateau(f, d)
    k_adj, meets_fadj = plateau(f.adjoint(), d.adjoint())
    expected = max(p, f.power_chain(tol).index)
    if not k == k_adj == expected:
        raise IdentityViolation(
            f"intersection chains stabilize at k = {k}, k' = {k_adj}, not at "
            f"max(p, ind F) = {expected}"
        )
    return CriterionReport(
        p=p,
        k=k,
        intersection_classes=tuple(m.k0() for m in meets_f),
        adjoint_classes=tuple(m.k0() for m in meets_fadj),
        commutator_residual=float(comm),
    )


# ---------------------------------------------------------------------------
# Browder decompositions


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
    comm = commutator_residual(f, d)
    chain = (d @ f).power_chain(tol)
    split, p = chain.split, chain.index
    wit_f, wit_d = chain.witness(f), chain.witness(d)

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
