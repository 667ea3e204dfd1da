"""Quantitative subspace geometry: angles, minimum moduli, closed sums.

Two numbers carry everything here.  For a pair of submodules with
trivial intersection, ``c0`` is the cosine of the smallest principal
angle (the Dixmier angle cosine) and ``delta`` is the minimum modulus of
the orthocomplement projection restricted to the second space.  They
are tied by the exact identity c0^2 + delta^2 = 1, and delta alone
yields the constant (delta+1)/delta that bounds the summand norms of a
closed sum.

Bouldin's closed-range criterion for a composition DF (R. Bouldin, "The
product of operators with closed range", Tohoku Math. J. 25, 1973) is the
same geometry for the pair (Im F, ker D).  Both spaces are cut down once
to their parts transverse to K = Im F ∩ ker D, each the complement of K
inside its own space: per block, one SVD of the small matrix K^H Q, whose
trailing right singular vectors span it.  No rank is decided there, since
the width (the space's less K's) is forced, and no complement of K in the
whole module is formed (see ``_reduce``; Björck & Golub, Math. Comp. 27,
1973).  The closed-sum report of that reduced pair gives c0, delta and
the verdict, and delta is one of the two restricted-projection margins.
The other margin is the mirror quantity.  Both equal the sine of the
smallest angle between the leftover pieces, so they are positive
together — that equivalence is asserted, not assumed.

All SVD work happens on the per-block compressed column bases: the
flat cross-Gram of two submodules is the direct sum of the per-block
cross-Grams, each tensored with an identity, so angle cosines and
restricted minimum moduli computed blockwise are *equal* to their flat
(and module-norm) counterparts — the extremising vectors can be taken
of rank one.

The summand bound is certified exactly.  The supremum of ||x||/||x + y||
over x in M, y in N is the norm of the oblique projector P onto M along
N, and ||P|| = 1/delta (Kato, *Perturbation Theory for Linear
Operators*, I section 4.6; Szyld, Numer. Algorithms 42, 2006).  Per
block, with R the triangular factor of [W_M W_N], P acts in coefficient
coordinates as the top k rows of R^-1, so ||P|| is the largest of their
singular values over the blocks.  That route (QR and inverse) does not
share a step with delta's (residual SVD), and the two must agree; since
||P|| <= (delta+1)/delta, the closed-sum bound follows.

The ``geometry`` command also samples the bound: it draws pairs x, y and
takes genuine module norms of x and x + y.  Those norms are largest
singular values of small coefficient matrices T (one per block and
sample), read off the Gram matrix as sqrt(lambda_max(T^H T)).  The Gram
route squares the condition number, which ruins the *smallest* singular
values, but the largest eigenvalue of T^H T carries an absolute error of
order eps * ||T||^2 = eps * lambda_max, so its square root is accurate
to a few ulps (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., section 20).  For n_b = 1 the Gram matrix is the squared column
norm, so one path serves every block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentityViolation, StructureError
from .linmap import AdjointableMap
from .modules import K0Class, Submodule
from .subspace import _cross, _live, _merge, _residual_values, _top_singular, herm, stacked
from .tolerances import COINCIDE_TOL, DEFAULT_TOL, POSITIVITY_TAU, ToleranceConfig

Array = np.ndarray

__all__ = [
    "GeometryReport",
    "CompositionReport",
    "dixmier_angle",
    "min_modulus_restricted",
    "closed_sum_report",
    "bouldin_criterion",
]


@dataclass(frozen=True, eq=False)
class GeometryReport:
    """Angle/minimum-modulus data for the closed sum of a pair of spaces.

    ``c0`` and ``delta`` describe the reduced pair (intersection removed
    when ``reduced``); ``bound_C = (delta+1)/delta`` is the norm bound
    for summands of the closed sum (1.0 in the degenerate case, where
    the reduced second space is zero and ``delta`` is +inf).
    ``oblique_norm`` is the norm of the projector onto the reduced M
    along the reduced N (None unless both are nonzero), which equals
    1/delta.
    """

    c0: float
    delta: float
    bound_C: float
    verdict: bool
    degenerate: bool = False
    reduced: bool = False
    intersection_class: K0Class | None = None
    pythagoras_residual: float | None = None
    oblique_norm: float | None = None
    sampled_max_norm: float | None = None
    sample_count: int = 0


@dataclass(frozen=True, eq=False)
class CompositionReport:
    """Bouldin's criterion for the composition DF.

    ``closed_sum`` is the closed-sum report of (Im F, ker D); its
    ``delta`` is margin_q and its ``verdict`` says whether Im DF is
    closed.  ``margin_p`` is the mirror margin (+inf when its domain is
    the zero space), ``gamma_composition`` the reduced minimum modulus
    of DF, and ``duality_residual`` the largest change of a finite
    margin under (F, D) -> (D*, F*).
    """

    closed_sum: GeometryReport
    margin_p: float
    gamma_composition: float
    duality_residual: float


# ---------------------------------------------------------------------------
# the two scalar quantities


def dixmier_angle(m: Submodule, n: Submodule, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Cosine of the smallest principal angle between two submodules.

    Computed blockwise, both as the largest singular value of W^H V and
    as the operator norm of P_W P_V; the two must agree to tolerance.
    """
    if m.shape != n.shape or m.m != n.m:
        raise StructureError("submodules live in different modules")
    qms, qns = _live((m.groups, n.groups), lambda a, b: a.shape[-1] and b.shape[-1])
    c_svd, c_proj = (_top_singular(stacked(fn, qms, qns)) for fn in (_cross, _projector))
    if abs(c_svd - c_proj) > tol.angle_tol:
        raise IdentityViolation(
            f"angle cross-check failed: {c_svd:.12e} vs {c_proj:.12e}"
        )
    return min(c_svd, 1.0)


def _projector(qm: Array, qn: Array) -> Array:
    return (qm @ herm(qm)) @ (qn @ herm(qn))


def min_modulus_restricted(m: Submodule, n: Submodule, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Minimum modulus of (projection onto M^perp) restricted to N.

    +inf when N is the zero space (bounded below vacuously).  Positivity
    is checked for consistency against the computed intersection.
    """
    if m.shape != n.shape or m.m != n.m:
        raise StructureError("submodules live in different modules")
    return _min_modulus(m, n, tol, m.intersection(n)[0])


def _min_modulus(
    m: Submodule, n: Submodule, tol: ToleranceConfig, meet: Submodule | None = None
) -> float:
    """``min_modulus_restricted`` checked against ``meet`` = M ∩ N; None
    for a pair already cut down by ``_reduce``, whose intersection is zero."""
    qms, qns = _live((m.groups, n.groups), lambda _, qn: qn.shape[-1] > 0)
    residuals = stacked(_residual_values, qms, qns)
    delta = min((min(v[:, -1].tolist()) for v in residuals.stacks), default=math.inf)
    if meet is not None and meet.dim > 0:
        if delta > 10.0 * COINCIDE_TOL:
            raise IdentityViolation(
                f"nonzero intersection (class {meet.k0()}) but delta = {delta:.3e}"
            )
    elif math.isfinite(delta) and delta <= tol.rank_tol:
        raise IdentityViolation(
            f"trivial intersection but delta = {delta:.3e} is numerically zero"
        )
    return delta


def _bound_from_delta(delta: float) -> float:
    if math.isinf(delta):
        return 1.0
    if delta <= 0.0:
        return math.inf
    return (delta + 1.0) / delta


def _oblique_factors(wm: Array, wn: Array) -> tuple[Array, Array]:
    """R of [wm wn] = QR, and the singular values of the projector onto
    span(wm) along span(wn), for orthonormal wm and wn: the top rows of
    R^-1 map the Q-coordinates of a vector of the sum to the
    wm-coefficients of its projection."""
    r = np.linalg.qr(np.concatenate([wm, wn], axis=-1), mode="r")
    return r, np.linalg.svd(np.linalg.inv(r)[..., : wm.shape[-1], :], compute_uv=False)


def _module_norms(stacks: list[Array]) -> Array:
    """Module norms of a batch of vectors, given per block as a (count, rows, n_b)
    stack of tall forms or of their coefficients on an orthonormal basis, via Gram matrices."""
    norms = np.zeros(stacks[0].shape[0])
    for talls in stacks:
        grams = np.einsum("kij,kil->kjl", talls.conj(), talls)
        block = np.sqrt(np.maximum(np.linalg.eigvalsh(grams)[:, -1], 0.0))
        norms = np.maximum(norms, block)
    return norms


# ---------------------------------------------------------------------------
# closed-sum report


def _outside(q: Array, k: Array) -> Array:
    """span(q) ⊖ span(k), for span(k) inside span(q) up to roundoff: q times
    the trailing right singular vectors of k^H q, as many as q has columns
    more than k."""
    if not k.shape[-1]:
        return q
    vh = np.linalg.svd(herm(k) @ q)[2]
    return q @ herm(vh[..., k.shape[-1] :, :])


def _reduce(m: Submodule, n: Submodule) -> tuple[Submodule, Submodule, Submodule]:
    """K = M ∩ N, and the parts M ⊖ K and N ⊖ K of the pair transverse to
    it (M and N themselves when K = 0).

    Each part is the complement of K inside its own space, one SVD of the
    k x r matrix K^H Q per block (Björck & Golub, Math. Comp. 27, 1973):
    no rank is decided, since the width r - k is forced.  K = qr(Q_M v) lies
    in M to roundoff and within ``COINCIDE_TOL`` of N, so K^H Q has k
    singular values at 1 up to that angle, and its trailing r - k right
    singular vectors span the directions of Q orthogonal to K."""
    if m.shape != n.shape or m.m != n.m:
        raise StructureError("submodules live in different modules")
    meet, _ = m.intersection(n)
    if meet.dim == 0:
        return meet, m, n
    parts = []
    for x in (m, n):
        out = stacked(_outside, x.groups, meet.groups)
        parts.append(Submodule._of_groups(m.shape, m.m, _merge(zip(out.stacks, out.members))))
    return meet, *parts


def closed_sum_report(
    m: Submodule,
    n: Submodule,
    tol: ToleranceConfig = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    samples: int = 10_000,
) -> GeometryReport:
    """delta, c0, and the (delta+1)/delta summand bound for M + N.

    A nonzero intersection is removed first (both spaces are cut down to
    their parts transverse to it) and flagged ``reduced``.  When both
    reduced spaces are nonzero, the norm of the oblique projector onto M
    along N is computed per block from the QR factor R of [W_M W_N] (see
    the module docstring; a block with no M columns contributes 0, one
    with no N columns 1) and must equal 1/delta to within 1e-8 on the
    sine scale.  Every ratio ||x||/||x + y|| is at most that norm, so
    the bound ||x|| <= (delta+1)/delta * ||x + y|| holds exactly.

    With ``samples`` > 0 the bound is also sampled, as the ``geometry``
    command reports it: x = W_M a in M and y = W_N b in N, with ||x|| the
    norm of a and ||x + y|| that of R [a; b], per block.
    """
    return _closed_sum(*_reduce(m, n), tol, rng, samples)


def _closed_sum(
    meet: Submodule,
    m_red: Submodule,
    n_red: Submodule,
    tol: ToleranceConfig,
    rng: np.random.Generator | None,
    samples: int,
) -> GeometryReport:
    """The closed-sum report of a pair already cut down by ``_reduce``."""
    delta = _min_modulus(m_red, n_red, tol)
    c0 = dixmier_angle(m_red, n_red, tol)
    degenerate = math.isinf(delta)
    pyth = None
    if not degenerate:
        pyth = abs(c0 * c0 + delta * delta - 1.0)
        if pyth > 1e-8:
            raise IdentityViolation(f"c0^2 + delta^2 = 1 violated by {pyth:.3e}")
    bound = _bound_from_delta(delta)

    oblique = worst = None
    if m_red.dim > 0 and n_red.dim > 0:
        factors, values = stacked(_oblique_factors, m_red.groups, n_red.groups)
        oblique = max(float(v.max(initial=0.0)) for v in values.stacks)
        if abs(delta - 1.0 / oblique) > 1e-8:
            raise IdentityViolation(
                f"oblique projector norm {oblique:.12e} is not 1/delta = {1.0 / delta:.12e}"
            )
    if samples > 0 and oblique is not None:
        gen = rng if rng is not None else np.random.default_rng(0)
        xs = m_red.sample_coefficients(gen, samples)
        ys = n_red.sample_coefficients(gen, samples)
        sums = [
            np.tensordot(r, np.concatenate([x, y]), axes=1) for r, x, y in zip(factors.mats, xs, ys)
        ]
        scale = np.maximum(_module_norms([s.transpose(2, 0, 1) for s in sums]), 1e-300)
        x_norms = _module_norms([x.transpose(2, 0, 1) for x in xs]) / scale
        worst = float(np.max(x_norms))
        if worst > bound + tol.angle_tol:
            raise IdentityViolation(
                f"sampled summand norm {worst:.6e} exceeds the bound {bound:.6e}"
            )
    return GeometryReport(
        c0=c0,
        delta=delta,
        bound_C=bound,
        verdict=delta > POSITIVITY_TAU,
        degenerate=degenerate,
        reduced=meet.dim > 0,
        intersection_class=meet.k0(),
        pythagoras_residual=pyth,
        oblique_norm=oblique,
        sampled_max_norm=worst,
        sample_count=samples if worst is not None else 0,
    )


# ---------------------------------------------------------------------------
# composition closed-range criterion


def bouldin_criterion(
    f: AdjointableMap, d: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> CompositionReport:
    """Bouldin's criterion for Im DF from one closed-sum report of (Im F, ker D).

    K = Im F ∩ ker D is split off once.  margin_q, the minimum modulus of
    the projection onto (Im F)^perp restricted to ker D ∩ K^perp, is the
    closed-sum delta: on that space, projecting onto (Im F)^perp is
    projecting onto (Im F ∩ K^perp)^perp.  margin_p is the mirror
    quantity on Im F ∩ K^perp.  Both equal the sine of the smallest
    angle between the leftover pieces, hence are positive together; that
    equivalence and the (F, D) -> (D*, F*) symmetry are checked.
    """
    if f.shape != d.shape or d.m != f.n:
        raise StructureError("maps are not composable (d after f)")
    meet, s1, s2 = _reduce(f.image(tol), d.kernel(tol))
    cs = _closed_sum(meet, s1, s2, tol, rng=None, samples=0)
    margin_p, margin_q = _min_modulus(s2, s1, tol), cs.delta
    if (margin_p > POSITIVITY_TAU) != cs.verdict:
        raise IdentityViolation(
            f"restricted-projection margins disagree: {margin_p:.3e} vs {margin_q:.3e}"
        )
    if math.isfinite(margin_p) and math.isfinite(margin_q):
        if abs(margin_p - margin_q) > 1e-8:
            raise IdentityViolation(
                f"the two margins should coincide: {margin_p:.12e} vs {margin_q:.12e}"
            )

    # Duality: the same margins must come out of the adjoint-side pair
    # (Im D*, ker F*) = ((ker D)^perp, (Im F)^perp).
    ds, fs = d.adjoint(), f.adjoint()
    _, t1, t2 = _reduce(ds.image(tol), fs.kernel(tol))
    dual_p, dual_q = _min_modulus(t2, t1, tol), _min_modulus(t1, t2, tol)
    finite_pairs = [
        (a, b)
        for a, b in ((margin_p, dual_p), (margin_q, dual_q))
        if math.isfinite(a) and math.isfinite(b)
    ]
    duality_resid = max((abs(a - b) for a, b in finite_pairs), default=0.0)
    if duality_resid > 1e-8:
        raise IdentityViolation(
            f"margins not symmetric under the adjoint swap (residual {duality_resid:.3e})"
        )

    gamma = (d @ f).singular_data(tol, scale=d.norm() * f.norm()).gamma
    return CompositionReport(
        closed_sum=cs, margin_p=margin_p, gamma_composition=gamma, duality_residual=duality_resid
    )
