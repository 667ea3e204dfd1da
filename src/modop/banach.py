"""Oblique-complement operator calculus on plain finite-dimensional spaces.

This is the Banach-space half of the package: no inner-product
structure is assumed on the chosen complements, so projections are
idempotents rather than self-adjoint projectors, and "cokernel" always
means a *chosen* complement of the range.  Complements are first-class
arguments — nothing silently defaults to orthogonal; the orthogonal
choice exists as its own explicit constructor.

The two substantial constructions mirror constructive proofs step by
step.  A finite-rank perturbation of a regular operator is handled by
splitting everything over T(ker F) and ker F and balancing dimensions;
the balance is an exact integer identity, so it raises on failure
rather than reporting a residual.  The perturbed operator's range
complement V is the orthogonal complement of Im(T+F) = T(ker F) (+) N',
N' the part of Im(T+F) transverse to T(ker F).  A composition of two
regular operators yields a generalized inverse of the restriction of
the outer factor to the inner one's range and an exact six-space
sequence built from the oblique quotient maps, whose alternating
dimension sum is the index theorem.

Each regular operator decides its rank once, on one SVD: a given T at
||T||, a derived one at its factor scale, ||T|| + ||F|| for T+F and
||S|| ||T|| for ST, so a numerically-zero sum or product is zero, not
of full rank.  Each space is orthonormalized once (the SVD of T gives
ker T, Im T and their orthogonal complements), and every idempotent E,
||E|| and the sine checking ||E|| = 1/sin theta_min are read from that
orthonormal pair.  A projector norm above ``ILL_POSED_PROJECTOR_NORM``
flags the instance ill-posed instead of letting residual checks degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolation, StructureError, UnmetHypothesisError
from .subspace import (
    Grouped,
    SingularData,
    _residual_values,
    as_complex,
    chains_exactness,
    intersections,
    kernel_image,
    null_space,
    op_norm,
    orthonormal_image,
    svd_data,
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


# ---------------------------------------------------------------------------
# decompositions and regular operators


@dataclass(frozen=True, eq=False)
class ObliqueDecomposition:
    """A splitting of C^d into Im E and ker E for an idempotent E, on
    orthonormal bases of both.  ``cond`` is the condition number of
    [image_basis kernel_basis]: cot(theta_min / 2), theta_min the smallest
    principal angle between the halves (1.0 when a half is trivial)."""

    ambient: int
    idempotent: Array
    image_basis: Array
    kernel_basis: Array
    norm: float
    cond: float
    idempotency_residual: float
    ill_posed: bool  # norm above ILL_POSED_PROJECTOR_NORM


def _orthonormal(a: Array, name: str, tol: ToleranceConfig) -> Array:
    """Orthonormal basis of span(a) at unit scale; dependent columns raise."""
    q, data = orthonormal_image(a, tol, scale=1.0)
    if data.rank < a.shape[1]:
        raise UnmetHypothesisError(
            f"{name} has dependent columns (rank {data.rank} of {a.shape[1]})"
        )
    return q


def _split(onto: Array, along: Array, tol: ToleranceConfig) -> ObliqueDecomposition:
    """The idempotent onto span(onto) along span(along), both bases
    orthonormal: E = onto (top rows of [onto along]^-1), its norm taken
    once and checked against 1/sin theta_min, the sine read off the part
    of span(onto) outside span(along)."""
    amb = onto.shape[0]
    if onto.shape[1] + along.shape[1] != amb:
        raise UnmetHypothesisError(
            f"complement dimensions {onto.shape[1]}+{along.shape[1]} != ambient {amb}"
        )
    s_mat = np.hstack([onto, along])
    sdata = svd_data(s_mat, tol, scale=1.0)
    if sdata.rank < amb:
        raise UnmetHypothesisError("claimed complements share directions (singular basis matrix)")
    e = onto @ np.linalg.inv(s_mat)[: onto.shape[1]]
    norm = op_norm(e)
    resid = op_norm(e @ e - e) / max(norm, 1e-300)
    if onto.shape[1] and along.shape[1]:
        sin_min = float(_residual_values(along, onto)[-1])
        if abs(1.0 / norm - sin_min) > 1e-8:
            raise IdentityViolation(
                f"idempotent norm {norm:.12e} is not 1/sin theta_min = {1.0 / sin_min:.12e}"
            )
    return ObliqueDecomposition(
        ambient=amb,
        idempotent=e,
        image_basis=onto,
        kernel_basis=along,
        norm=norm,
        cond=float(sdata.values[0] / sdata.values[-1]) if amb else 1.0,
        idempotency_residual=float(resid),
        ill_posed=norm > ILL_POSED_PROJECTOR_NORM,
    )


def oblique_decomposition(
    onto: Array, along: Array, tol: ToleranceConfig = DEFAULT_TOL
) -> ObliqueDecomposition:
    """The idempotent with range span(onto) and kernel span(along).

    The two spans must be algebraic complements of the ambient space and
    each basis must have independent columns; anything else raises
    :class:`UnmetHypothesisError`.  Both bases are orthonormalized once,
    and E, ||E|| and sin theta_min are all read from that orthonormal pair
    (:func:`_split`), which checks ||E|| = 1/sin theta_min to within 1e-8.
    """
    onto, along = as_complex(onto), as_complex(along)
    if onto.shape[1] + along.shape[1] == onto.shape[0]:  # else _split names the widths
        onto, along = _orthonormal(onto, "onto", tol), _orthonormal(along, "along", tol)
    return _split(onto, along, tol)


@dataclass(frozen=True, eq=False)
class RegularOperator:
    """A matrix together with a generalized inverse and the chosen
    complements that produced it.

    ``tprime`` inverts ``t`` from the kernel complement onto the range
    and kills the range complement; consequently t t' is the projection
    onto Im T along the range complement and t' t the projection onto
    the kernel complement along ker T.
    """

    t: Array
    tprime: Array
    singular_values: Array  # of T, from the one SVD that decided its rank
    kernel_basis: Array
    image_basis: Array
    ker_decomposition: ObliqueDecomposition  # of the domain: complement (+) ker T
    im_decomposition: ObliqueDecomposition  # of the codomain: Im T (+) complement
    rank: int
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def dim_ker(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def codim_im(self) -> int:
        return self.t.shape[0] - self.rank

    @property
    def im_complement(self) -> Array:
        return self.im_decomposition.kernel_basis

    @property
    def ill_posed(self) -> bool:
        return self.ker_decomposition.ill_posed or self.im_decomposition.ill_posed


def _regular(
    t: Array, data: SingularData, scale: float | None, bases: tuple, tol: ToleranceConfig
) -> RegularOperator:
    """Regular operator of ``t`` under the decision ``data`` made at ``scale``
    (||T|| when None), on orthonormal bases (ker T, Im T, kc, ic) ``bases``."""
    kernel, image, kc, ic = bases
    scale = max(data.smax, 1e-300) if scale is None else scale
    try:
        ker_dec = _split(kc, kernel, tol)
    except UnmetHypothesisError as exc:
        raise UnmetHypothesisError(
            f"kernel complement (dim {kc.shape[1]}) does not complement "
            f"ker T (dim {kernel.shape[1]}) in C^{t.shape[1]}: {exc}"
        ) from exc
    try:
        im_dec = _split(image, ic, tol)
    except UnmetHypothesisError as exc:
        raise UnmetHypothesisError(
            f"range complement (dim {ic.shape[1]}) does not complement "
            f"Im T (dim {image.shape[1]}) in C^{t.shape[0]}: {exc}"
        ) from exc

    e_x, e_y = ker_dec.idempotent, im_dec.idempotent
    tprime = kc @ np.linalg.pinv(t @ kc) @ e_y if kc.shape[1] else np.zeros((t.shape[1], t.shape[0]), complex)
    return RegularOperator(
        t=t,
        tprime=tprime,
        singular_values=np.array(data.values),
        kernel_basis=kernel,
        image_basis=image,
        ker_decomposition=ker_dec,
        im_decomposition=im_dec,
        rank=image.shape[1],
        residuals={
            "ttprime_t": op_norm(t @ tprime @ t - t) / scale,
            "tprime_t_tprime": op_norm(tprime @ t @ tprime - tprime) / max(op_norm(tprime), 1e-300),
            "tt_is_im_projection": op_norm(t @ tprime - e_y) / max(im_dec.norm, 1.0),
            "t_t_is_ker_projection": op_norm(tprime @ t - e_x) / max(ker_dec.norm, 1.0),
        },
    )


def make_regular(
    t: Array, ker_complement: Array, im_complement: Array, tol: ToleranceConfig = DEFAULT_TOL
) -> RegularOperator:
    """Generalized inverse of ``t`` for explicitly chosen complements.

    ``ker_complement`` must complement ker T in the domain and
    ``im_complement`` Im T in the codomain, each with independent columns;
    violations raise with the offending dimensions.  The rank is decided
    at ||T||, read off the one SVD of T.
    """
    t = as_complex(t)
    (kernel, image, _, _), data = kernel_image(t, tol)
    kc = _orthonormal(as_complex(ker_complement), "kernel complement", tol)
    ic = _orthonormal(as_complex(im_complement), "range complement", tol)
    return _regular(t, data, None, (kernel, image, kc, ic), tol)


def _regular_orthogonal(t: Array, scale: float | None, tol: ToleranceConfig) -> RegularOperator:
    """Orthogonal-complement regular operator of ``t``, its rank decided at
    ``scale`` (the factor scale for T+F and ST), or at ||T|| when None."""
    bases, data = kernel_image(t, tol, scale=scale)
    return _regular(t, data, scale, bases, tol)


def make_regular_orthogonal(t: Array, tol: ToleranceConfig = DEFAULT_TOL) -> RegularOperator:
    """The orthogonal-complement choice, made explicitly.

    With both complements orthogonal the generalized inverse is the
    Moore-Penrose pseudoinverse.
    """
    return _regular_orthogonal(as_complex(t), None, tol)


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

    Spaces: W = T(ker F); N / N' are the parts of Im T / Im(T+F)
    transverse to W; M / M' complete ker T / ker(T+F) over the common
    core ker T ∩ ker F.  T+F is decided once, at the factor scale
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


def banach_perturbation(
    reg: RegularOperator, f: Array, tol: ToleranceConfig = DEFAULT_TOL
) -> PerturbationRecord:
    """Carry a chosen-complement structure across a finite-rank perturbation.

    Auxiliary complements inside the construction (of ker F and of
    T(ker F)) are taken orthogonal — they are existential in the
    argument, and any choice gives the same dimensions.
    """
    t = reg.t
    f = as_complex(f)
    if f.shape != t.shape:
        raise StructureError("perturbation must have the same shape as T")
    ker_f, f_data = null_space(f, tol)
    nt, nf = reg.singular_values.max(initial=0.0), f_data.smax
    perturbed = _regular_orthogonal(t + f, max(nt + nf, 1e-300), tol)  # at ||T|| + ||F||

    w, _ = orthonormal_image(t @ ker_f, tol, scale=max(nt, 1e-300))
    q_proj = np.eye(t.shape[0], dtype=complex) - w @ w.conj().T
    p_proj = np.eye(t.shape[1], dtype=complex) - ker_f @ ker_f.conj().T

    im_t, ker_t = reg.image_basis, reg.kernel_basis
    im_tf, ker_tf = perturbed.image_basis, perturbed.kernel_basis
    (common, _), (common2, _) = intersections([ker_t, ker_tf], [ker_f, ker_f])
    if common.shape[1] != common2.shape[1]:
        raise IdentityViolation(
            "ker(T+F) ∩ ker F and ker T ∩ ker F have different dimensions "
            f"({common2.shape[1]} vs {common.shape[1]})"
        )
    projected = [q_proj @ im_t, q_proj @ im_tf, p_proj @ ker_t, p_proj @ ker_tf]
    n_space, n_prime, m_space, m_prime = (
        orthonormal_image(a, tol, scale=1.0)[0] for a in projected
    )

    # Y = W (+) N' (+) V: V completes Im(T+F) = W (+) N'.
    w_plus_np, _ = orthonormal_image(np.hstack([w, n_prime]), tol, scale=1.0)
    if w_plus_np.shape[1] != perturbed.rank:
        raise IdentityViolation(
            f"Im(T+F) should split as T(ker F) (+) N' "
            f"({w.shape[1]} + {n_prime.shape[1]} vs rank {perturbed.rank})"
        )

    wit = defect_witness(reg)
    lhs = perturbed.dim_ker + m_space.shape[1] + n_space.shape[1] + wit.z1
    rhs = perturbed.codim_im + m_prime.shape[1] + n_prime.shape[1] + wit.z2
    if lhs != rhs:
        raise IdentityViolation(f"perturbation dimension identity failed: {lhs} != {rhs}")
    return PerturbationRecord(
        rank_f=f_data.rank,
        w_dim=w.shape[1],
        n_dim=n_space.shape[1],
        n_prime_dim=n_prime.shape[1],
        m_dim=m_space.shape[1],
        m_prime_dim=m_prime.shape[1],
        common_kernel_dim=common.shape[1],
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
    T(X); ``meet_dim`` is the dimension of S^{-1}(0) ∩ T(X).  The
    six-space sequence uses the three chosen range complements as
    quotient realisations; its alternating dimension sum vanishing is
    the index theorem.
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


def banach_product(
    s_reg: RegularOperator, t_reg: RegularOperator, tol: ToleranceConfig = DEFAULT_TOL
) -> ProductRecord:
    """Certify the composition of two regular operators (S after T)."""
    s, t = s_reg.t, t_reg.t
    if s.shape[1] != t.shape[0]:
        raise StructureError("operators are not composable (S after T)")
    ns, nt = s_reg.singular_values.max(initial=0.0), t_reg.singular_values.max(initial=0.0)
    scale_s, scale_t = max(ns, 1e-300), max(nt, 1e-300)
    # ST is decided at the factor scale ||S|| ||T||, as fredholm.product_chain does
    st_reg = _regular_orthogonal(s @ t, max(ns * nt, 1e-300), tol)

    # TU := T (ST)' is a generalized inverse of S restricted to T(X).
    tu = t @ st_reg.tprime
    q_tx = t_reg.image_basis
    a_on_tx = s @ q_tx
    r_aba = op_norm(s @ tu @ a_on_tx - a_on_tx) / scale_s
    ntu = max(op_norm(tu), 1e-300)
    r_bab = op_norm(tu @ s @ tu - tu) / ntu
    meet, _ = intersections([s_reg.kernel_basis], [q_tx])[0]

    # Six-space sequence through the oblique quotient realisations.
    spaces = (
        t_reg.kernel_basis,
        st_reg.kernel_basis,
        s_reg.kernel_basis,
        t_reg.im_complement,
        st_reg.im_complement,
        s_reg.im_complement,
    )
    g_t = np.eye(t.shape[0], dtype=complex) - t_reg.im_decomposition.idempotent
    g_st = np.eye(s.shape[0], dtype=complex) - st_reg.im_decomposition.idempotent
    g_s = np.eye(s.shape[0], dtype=complex) - s_reg.im_decomposition.idempotent
    maps = (
        spaces[1].conj().T @ spaces[0],
        spaces[2].conj().T @ ((t / scale_t) @ spaces[1]),
        spaces[3].conj().T @ (g_t @ spaces[2]),
        spaces[4].conj().T @ (g_st @ ((s / scale_s) @ spaces[3])),
        spaces[5].conj().T @ (g_s @ spaces[4]),
    )
    dims = tuple(b.shape[1] for b in spaces)
    nodes, inj, surj = chains_exactness([Grouped.of([a]) for a in maps], tol)
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
        meet_dim=meet.shape[1],
        gw_t=generalized_weyl_banach(t_reg),
        gw_s=generalized_weyl_banach(s_reg),
        gw_st=generalized_weyl_banach(st_reg),
        chain_dims=dims,
        node_residuals=tuple(float(node[0]) for node in nodes),
        injectivity_defect=float(inj[0]),
        surjectivity_defect=float(surj[0]),
        witness_lhs=lhs,
        witness_rhs=rhs,
        ill_posed=s_reg.ill_posed or t_reg.ill_posed or st_reg.ill_posed,
    )
