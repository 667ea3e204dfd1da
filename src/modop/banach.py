"""Oblique-complement operator calculus on module maps.

This is the Banach-space half of the package: no inner-product
structure is assumed on the chosen complements, so projections are
idempotents rather than self-adjoint projectors, and "cokernel" always
means a *chosen* complement of the range.  Complements are first-class
arguments — nothing silently defaults to orthogonal; the orthogonal
choice exists as its own explicit constructor.

Operators are module maps and spaces submodules (a plain matrix is a map
over the one-block algebra (1)).  The flat matrix of a map is its
compressed blocks tensored with I_{n_b}, and every space built here is a
submodule, so the flat calculus is the per-block one (Lance, *Hilbert
C*-Modules*, 1995, ch. 3): a norm is the largest over blocks, a
sin theta_min the smallest, a dimension the flat sum of n_b times the
block width.  No flat matrix is built.

A finite-rank perturbation of a regular operator is handled by splitting
everything over T(ker F) and ker F and balancing dimensions; the balance
is an exact integer identity, so it raises on failure rather than
reporting a residual.  A composition of two regular operators yields a
generalized inverse of the restriction of the outer factor to the inner
one's range and an exact six-space sequence built from the oblique
quotient maps, whose alternating dimension sum is the index theorem.

Each regular operator decides its rank once, on its map's one SVD
record: a given T at ||T||, a derived one at its factor scale, ||T|| +
||F|| for T+F and ||S|| ||T|| for ST, so a numerically-zero sum or
product is zero, not of full rank.  That record gives ker T, Im T and
their orthogonal complements, and the generalized inverse reads the
kept left singular vectors (Ben-Israel & Greville, *Generalized
Inverses*, 2003, ch. 2).  A projector norm above
``ILL_POSED_PROJECTOR_NORM`` flags the instance ill-posed instead of
letting residual checks degrade.  The maps and submodules a record holds
are its operands, which :func:`modop.serialize.report_to_jsonable` leaves
out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IdentityViolation, StructureError, UnmetHypothesisError
from .linmap import AdjointableMap
from .modules import Submodule
from .subspace import (
    _cross,
    _outside,
    _side_by_side,
    _spans,
    _stack_ranks,
    _top_singular,
    chains_exactness,
    herm,
    stacked,
)
from .tolerances import DEFAULT_TOL, ILL_POSED_PROJECTOR_NORM, ToleranceConfig

Array = np.ndarray

__all__ = [
    "ObliqueDecomposition",
    "RegularOperator",
    "BanachWitness",
    "PerturbationRecord",
    "ProductRecord",
    "oblique_decomposition",
    "make_regular",
    "make_regular_orthogonal",
    "generalized_weyl_banach",
    "defect_witness",
    "banach_perturbation",
    "banach_product",
]

# A field holding an operand of the record (a map, a submodule, a scale): not reported.
_OPERAND = {"report": False}


# ---------------------------------------------------------------------------
# decompositions and regular operators


@dataclass(frozen=True, eq=False)
class ObliqueDecomposition:
    """A splitting of the module A^m into Im E and ker E for an idempotent
    module map E, on orthonormal bases of both.  ``ambient`` is the flat
    dimension; ``cond`` is the condition number of [image kernel], the
    largest singular value over blocks over the smallest:
    cot(theta_min / 2), theta_min the smallest principal angle between the
    halves (1.0 when a half is trivial)."""

    ambient: int
    idempotent: AdjointableMap = field(metadata=_OPERAND)
    image: Submodule = field(metadata=_OPERAND)
    kernel: Submodule = field(metadata=_OPERAND)
    norm: float
    cond: float
    ill_posed: bool  # norm above ILL_POSED_PROJECTOR_NORM

    @cached_property
    def idempotency_residual(self) -> float:
        """||E E - E|| / ||E||, computed when a report reads it."""
        defect = stacked(lambda e: e @ e - e, self.idempotent.groups)
        return _top_singular(defect) / max(self.norm, 1e-300)


def _basis_values(w: Array, a: Array) -> Array:
    """The singular values of [W A]: sqrt(1 +- cos theta) over the principal
    angles theta between span(W) and span(A), and ones."""
    return np.linalg.svd(_side_by_side(w, a), compute_uv=False)


def _idempotent(w: Array, a: Array) -> Array:
    """E = W (top rows of [W A]^-1), the idempotent onto span(W) along
    span(A)."""
    return w @ np.linalg.inv(_side_by_side(w, a))[..., : w.shape[-1], :]


def _split(
    onto: Submodule, along: Submodule, tol: ToleranceConfig, name: str = "chosen"
) -> ObliqueDecomposition:
    """The idempotent onto ``onto`` along ``along``, both with orthonormal
    bases, per block E = W (top rows of [W A]^-1), [W A] decided
    nonsingular at unit scale as the split of a power chain is.  Its
    smallest singular value s over the blocks is sqrt(1 - cos theta_min),
    so sin theta_min = s sqrt(2 - s^2) and cond = cot(theta_min / 2) are
    read off it; ||E|| is taken once and checked against 1/sin theta_min.
    ``name`` names the complement in errors."""
    amb = onto.ambient_dim
    widths = zip(onto.groups.sizes(-1), along.groups.sizes(-1), onto.groups.sizes(-2))
    for b, (k, j, d) in enumerate(widths):
        if k + j != d:
            raise UnmetHypothesisError(
                f"{name} complement: dimensions {onto.dim}+{along.dim} do not fill "
                f"ambient {amb} (block {b}: {k}+{j} != {d})"
            )
    values = stacked(_basis_values, onto.groups, along.groups).stacks
    if any((_stack_ranks(v, tol, v.shape[-1], 1.0) < v.shape[-1]).any() for v in values):
        raise UnmetHypothesisError(f"the {name} complement and its space share directions")
    e = stacked(_idempotent, onto.groups, along.groups)
    norm = _top_singular(e)
    low = min(float(v[:, -1].min()) for v in values)
    sin_min = low * (2.0 - low * low) ** 0.5
    if onto.dim and along.dim and abs(1.0 / norm - sin_min) > 1e-8:
        raise IdentityViolation(
            f"idempotent norm {norm:.12e} is not 1/sin theta_min = {1.0 / sin_min:.12e}"
        )
    return ObliqueDecomposition(
        ambient=amb,
        idempotent=AdjointableMap._of_groups(onto.shape, onto.m, onto.m, e),
        image=onto,
        kernel=along,
        norm=norm,
        cond=max(float(v[:, 0].max()) for v in values) / low,
        ill_posed=norm > ILL_POSED_PROJECTOR_NORM,
    )


def oblique_decomposition(
    onto: Submodule, along: Submodule, tol: ToleranceConfig = DEFAULT_TOL
) -> ObliqueDecomposition:
    """The idempotent with range ``onto`` and kernel ``along``, two
    submodules of one module.

    The two must be algebraic complements in every block; anything else
    raises :class:`UnmetHypothesisError`.  E, ||E|| and sin theta_min are
    all read from the submodules' orthonormal bases (:func:`_split`),
    which checks ||E|| = 1/sin theta_min to within 1e-8.
    """
    if (onto.shape, onto.m) != (along.shape, along.m):
        raise StructureError("onto and along live in different modules")
    return _split(onto, along, tol)


@dataclass(frozen=True, eq=False)
class RegularOperator:
    """A module map together with a generalized inverse and the chosen
    complements that produced it.

    ``tprime`` inverts ``t`` from the kernel complement onto the range
    and kills the range complement; consequently t t' is the projection
    onto Im T along the range complement and t' t the projection onto
    the kernel complement along ker T.  ``rank`` is the flat rank at ``scale``.
    """

    t: AdjointableMap = field(metadata=_OPERAND)
    tprime: AdjointableMap = field(metadata=_OPERAND)
    ker_decomposition: ObliqueDecomposition  # of the domain: complement (+) ker T
    im_decomposition: ObliqueDecomposition  # of the codomain: Im T (+) complement
    rank: int
    scale: float = field(metadata=_OPERAND)

    @cached_property
    def residuals(self) -> dict[str, float]:
        """T' as a generalized inverse, computed when a report reads it: the
        defects T T' T - T, T' T T' - T', T T' - E_y and T' T - E_x, relative
        to the scale, ||T'|| and the idempotents' norms (at least 1)."""
        ker_dec, im_dec, tprime = self.ker_decomposition, self.im_decomposition, self.tprime.groups
        r_tpt, r_ptp, r_im, r_ker = map(_top_singular, stacked(
            lambda t, p, e_y, e_x: (t @ p @ t - t, p @ t @ p - p, t @ p - e_y, p @ t - e_x),
            self.t.groups, tprime, im_dec.idempotent.groups, ker_dec.idempotent.groups))
        return {
            "ttprime_t": r_tpt / self.scale,
            "tprime_t_tprime": r_ptp / max(_top_singular(tprime), 1e-300),
            "tt_is_im_projection": r_im / max(im_dec.norm, 1.0),
            "t_t_is_ker_projection": r_ker / max(ker_dec.norm, 1.0),
        }

    @property
    def kernel(self) -> Submodule:
        return self.ker_decomposition.kernel

    @property
    def image(self) -> Submodule:
        return self.im_decomposition.image

    @property
    def dim_ker(self) -> int:
        return self.kernel.dim

    @property
    def codim_im(self) -> int:
        return self.im_decomposition.ambient - self.rank

    @property
    def im_complement(self) -> Submodule:
        return self.im_decomposition.kernel

    @property
    def ill_posed(self) -> bool:
        return self.ker_decomposition.ill_posed or self.im_decomposition.ill_posed


def _inverse(t: Array, kc: Array, ur: Array, e_y: Array) -> Array:
    """T' = K_c (U_r^H T K_c)^-1 U_r^H E_y, T inverted from span(K_c) onto
    Im T = span(U_r) after E_y.  On the SVD that decided the rank,
    U_r^H T = Sigma_r V_r^H, so T' = K_c (V_r^H K_c)^-1 Sigma_r^-1 U_r^H E_y,
    and V_r^H K_c is invertible exactly when K_c complements ker T."""
    u_h = herm(ur)
    return kc @ np.linalg.solve(u_h @ t @ kc, u_h @ e_y)


def _regular(
    t: AdjointableMap, scale: float | None, bases: tuple, tol: ToleranceConfig
) -> RegularOperator:
    """Regular operator of ``t`` under its rank decision at ``scale``
    (||T|| when None), on orthonormal bases (ker T, Im T, kc, ic) ``bases``."""
    kernel, image, kc, ic = bases
    scale = max(t.norm(), 1e-300) if scale is None else scale
    ker_dec, im_dec = _split(kc, kernel, tol, "kernel"), _split(image, ic, tol, "range")
    tprime = stacked(_inverse, t.groups, kc.groups, image.groups, im_dec.idempotent.groups)
    return RegularOperator(
        t=t,
        tprime=AdjointableMap._of_groups(t.shape, t.n, t.m, tprime),
        ker_decomposition=ker_dec,
        im_decomposition=im_dec,
        rank=image.dim,
        scale=scale,
    )


def make_regular(
    t: AdjointableMap,
    ker_complement: Submodule,
    im_complement: Submodule,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RegularOperator:
    """Generalized inverse of ``t`` for explicitly chosen complements.

    ``ker_complement`` must complement ker T in the domain and
    ``im_complement`` Im T in the codomain; violations raise with the
    offending dimensions.  The rank is decided at ||T||, on the one SVD
    record of T.
    """
    kc, ic = ker_complement, im_complement
    if (kc.shape, kc.m, ic.shape, ic.m) != (t.shape, t.m, t.shape, t.n):
        raise StructureError("the complements must lie in the domain and codomain of T")
    return _regular(t, None, (t.kernel(tol), t.image(tol), kc, ic), tol)


def _regular_orthogonal(
    t: AdjointableMap, scale: float | None, tol: ToleranceConfig
) -> RegularOperator:
    """Orthogonal-complement regular operator of ``t``, its rank decided at
    ``scale`` (the factor scale for T+F and ST), or at ||T|| when None."""
    bases = (
        t.kernel(tol, scale=scale),
        t.image(tol, scale=scale),
        t.coimage(tol, scale=scale),
        t.cokernel(tol, scale=scale),
    )
    return _regular(t, scale, bases, tol)


def make_regular_orthogonal(
    t: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> RegularOperator:
    """The orthogonal-complement choice, made explicitly.

    With both complements orthogonal the generalized inverse is the
    Moore-Penrose pseudoinverse.
    """
    return _regular_orthogonal(t, None, tol)


@dataclass(frozen=True)
class BanachWitness:
    """Minimal pads balancing kernel against cokernel dimension."""

    z1: int
    z2: int


def generalized_weyl_banach(reg: RegularOperator) -> bool:
    """Kernel and chosen-complement cokernel are isomorphic iff same dimension."""
    return reg.dim_ker == reg.codim_im


def defect_witness(reg: RegularOperator) -> BanachWitness:
    """Smallest z1, z2 with dim ker T + z1 = codim Im T + z2."""
    return BanachWitness(max(0, reg.codim_im - reg.dim_ker), max(0, reg.dim_ker - reg.codim_im))


# ---------------------------------------------------------------------------
# finite-rank perturbation


@dataclass(frozen=True, eq=False)
class PerturbationRecord:
    """Proof pipeline for T -> T + F with F of finite rank.

    Spaces: W = T(ker F); N / N' are the parts of Im T / Im(T+F) outside
    W; M / M' those of ker T / ker(T+F) outside ker F, which complete the
    common core ker T ∩ ker F.  T+F is decided once, at the factor scale
    ||T|| + ||F||, and ``perturbed`` is its regular operator with both
    complements orthogonal: its range complement V completes
    Im(T+F) = W (+) N' to the whole codomain.  The dimension identity
    balances all of them against T's witness.
    """

    rank_f: int
    w_dim: int
    n_dim: int
    n_prime_dim: int
    m_dim: int
    m_prime_dim: int
    common_kernel_dim: int
    kernel_perturbed_dim: int
    codim_perturbed: int
    witness: BanachWitness
    lhs: int
    rhs: int
    perturbed: RegularOperator
    ill_posed: bool


def _outside_of(sub: Submodule, q: Submodule, tol: ToleranceConfig) -> Submodule:
    """span((I - P_q) sub), per block at unit scale."""
    if not sub.dim:
        return sub
    parts = stacked(_outside, sub.groups, q.groups)
    return Submodule._of_groups(sub.shape, sub.m, _spans(parts, tol, scale=1.0))


def banach_perturbation(
    reg: RegularOperator, f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> PerturbationRecord:
    """Carry a chosen-complement structure across a finite-rank perturbation.

    Auxiliary complements inside the construction (of ker F and of
    T(ker F)) are taken orthogonal — they are existential in the
    argument, and any choice gives the same dimensions.
    """
    t = reg.t
    if (f.shape, f.m, f.n) != (t.shape, t.m, t.n):
        raise StructureError("perturbation must have the same shape as T")
    ker_f = f.kernel(tol)
    # T + F decided at the factor scale ||T|| + ||F||
    perturbed = _regular_orthogonal(t + f, max(t.norm() + f.norm(), 1e-300), tol)

    w = t.image_step(ker_f, tol)[0]  # T(ker F), inside Im T and Im(T+F)
    # dim M = dim ker T - dim(ker T ∩ ker F), and ker(T+F) ∩ ker F is that core
    n_space, n_prime = (_outside_of(im, w, tol) for im in (reg.image, perturbed.image))
    m_space, m_prime = (_outside_of(k, ker_f, tol) for k in (reg.kernel, perturbed.kernel))
    common, common2 = reg.dim_ker - m_space.dim, perturbed.dim_ker - m_prime.dim
    if common != common2:
        raise IdentityViolation(
            "ker(T+F) ∩ ker F and ker T ∩ ker F have different dimensions "
            f"({common2} vs {common})"
        )

    # Y = W (+) N' (+) V: V completes Im(T+F) = W (+) N', N' orthogonal to W.
    if w.dim + n_prime.dim != perturbed.rank:
        raise IdentityViolation(
            f"Im(T+F) should split as T(ker F) (+) N' "
            f"({w.dim} + {n_prime.dim} vs rank {perturbed.rank})"
        )

    wit = defect_witness(reg)
    lhs = perturbed.dim_ker + m_space.dim + n_space.dim + wit.z1
    rhs = perturbed.codim_im + m_prime.dim + n_prime.dim + wit.z2
    if lhs != rhs:
        raise IdentityViolation(f"perturbation dimension identity failed: {lhs} != {rhs}")
    return PerturbationRecord(
        rank_f=f.singular_data(tol).rank,
        w_dim=w.dim,
        n_dim=n_space.dim,
        n_prime_dim=n_prime.dim,
        m_dim=m_space.dim,
        m_prime_dim=m_prime.dim,
        common_kernel_dim=common,
        kernel_perturbed_dim=perturbed.dim_ker,
        codim_perturbed=perturbed.codim_im,
        witness=wit,
        lhs=lhs,
        rhs=rhs,
        perturbed=perturbed,
        ill_posed=perturbed.ill_posed or reg.ill_posed,
    )


# ---------------------------------------------------------------------------
# products of regular operators


@dataclass(frozen=True, eq=False)
class ProductRecord:
    """Composition data for regular S after regular T.

    ``tu_residuals`` certify TU := T (ST)', built from the product's own
    generalized inverse, as a generalized inverse of S restricted to
    T(X); ``meet_dim`` is the dimension of S^{-1}(0) ∩ T(X), the kernel of
    S on T(X), rank T - rank ST.  The
    six-space sequence uses the three chosen range complements as
    quotient realisations, per block; its alternating dimension sum
    vanishing is the index theorem.
    """

    st: RegularOperator
    tu_residuals: dict[str, float]
    meet_dim: int
    gw_t: bool
    gw_s: bool
    gw_st: bool
    chain_dims: tuple[int, ...]
    node_residuals: tuple[float, ...]
    injectivity_defect: float
    surjectivity_defect: float
    witness_lhs: int
    witness_rhs: int
    ill_posed: bool


def _restricted_inverse(t: Array, st_prime: Array, s: Array, q: Array) -> tuple[Array, ...]:
    """TU = T (ST)' and its defects as a generalized inverse of S on
    T(X) = span(Q): S TU A - A for A = S Q, and TU S TU - TU."""
    tu = t @ st_prime
    a = s @ q
    return tu, s @ tu @ a - a, tu @ s @ tu - tu


def _quotient(target: Array, e: Array, x: Array) -> Array:
    """(I - E) x, x modulo Im E along the chosen complement, in the
    orthonormal basis ``target`` of that complement."""
    return herm(target) @ (x - e @ x)


def banach_product(
    s_reg: RegularOperator, t_reg: RegularOperator, tol: ToleranceConfig = DEFAULT_TOL
) -> ProductRecord:
    """Certify the composition of two regular operators (S after T)."""
    s, t = s_reg.t, t_reg.t
    if s.shape != t.shape or s.m != t.n:
        raise StructureError("operators are not composable (S after T)")
    ns, nt = s.norm(), t.norm()
    scale_s, scale_t = max(ns, 1e-300), max(nt, 1e-300)
    # ST is decided at the factor scale ||S|| ||T||, as fredholm.product_chain does
    st_reg = _regular_orthogonal(s @ t, max(ns * nt, 1e-300), tol)

    # TU := T (ST)' is a generalized inverse of S restricted to T(X).
    tu, aba, bab = stacked(
        _restricted_inverse, t.groups, st_reg.tprime.groups, s.groups, t_reg.image.groups
    )
    r_aba = _top_singular(aba) / scale_s
    r_bab = _top_singular(bab) / max(_top_singular(tu), 1e-300)

    # Six-space sequence through the oblique quotient realisations, per block.
    spaces = (
        t_reg.kernel,
        st_reg.kernel,
        s_reg.kernel,
        t_reg.im_complement,
        st_reg.im_complement,
        s_reg.im_complement,
    )
    e_t, e_st, e_s = (r.im_decomposition.idempotent.groups for r in (t_reg, st_reg, s_reg))
    unit_t = t.groups.map(lambda c: c / scale_t)
    unit_s = s.groups.map(lambda c: c / scale_s)
    w = [sp.groups for sp in spaces]
    arrows = [
        stacked(_cross, w[1], w[0]),
        stacked(_cross, w[2], stacked(np.matmul, unit_t, w[1])),
        stacked(_quotient, w[3], e_t, w[2]),
        stacked(_quotient, w[4], e_st, stacked(np.matmul, unit_s, w[3])),
        stacked(_quotient, w[5], e_s, w[4]),
    ]
    dims = tuple(sp.dim for sp in spaces)
    nodes, inj, surj = chains_exactness(arrows, tol)
    alt = dims[0] - dims[1] + dims[2] - dims[3] + dims[4] - dims[5]
    if alt != 0:
        raise IdentityViolation(f"alternating dimension sum is {alt}, not 0")

    wit_t, wit_s = defect_witness(t_reg), defect_witness(s_reg)
    lhs = st_reg.dim_ker + wit_t.z1 + wit_s.z1
    rhs = st_reg.codim_im + wit_t.z2 + wit_s.z2
    if lhs != rhs:
        raise IdentityViolation(f"composition witness identity failed: {lhs} != {rhs}")

    return ProductRecord(
        st=st_reg,
        tu_residuals={"s_tu_s": float(r_aba), "tu_s_tu": float(r_bab)},
        meet_dim=t_reg.rank - st_reg.rank,  # S on T(X): its kernel against its rank
        gw_t=generalized_weyl_banach(t_reg),
        gw_s=generalized_weyl_banach(s_reg),
        gw_st=generalized_weyl_banach(st_reg),
        chain_dims=dims,
        node_residuals=tuple(max(node.tolist()) for node in nodes),
        injectivity_defect=max(inj.tolist()),
        surjectivity_defect=max(surj.tolist()),
        witness_lhs=lhs,
        witness_rhs=rhs,
        ill_posed=s_reg.ill_posed or t_reg.ill_posed or st_reg.ill_posed,
    )
