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
rather than reporting a residual.  A composition of two regular
operators yields a generalized inverse of the restriction of the outer
factor to the inner one's range and an exact six-space sequence built
from the oblique quotient maps, whose alternating dimension sum is the
index theorem.

Conditioning of every idempotent is recorded; a projector norm above
the configured bound flags the instance ill-posed instead of letting
residual checks silently degrade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolation, StructureError, UnmetHypothesisError
from .subspace import (
    as_complex,
    chain_exactness,
    complement,
    empty_basis,
    intersect,
    null_space,
    oblique_projector,
    op_norm,
    orthonormal_image,
    svd_data,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

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
    """A splitting of C^d into Im E and ker E for an idempotent E."""

    ambient: int
    idempotent: Array
    image_basis: Array
    kernel_basis: Array
    norm: float
    cond: float
    idempotency_residual: float
    ill_posed: bool  # norm above the caller's tol.ill_posed_projector_norm


def oblique_decomposition(
    onto: Array, along: Array, tol: ToleranceConfig = DEFAULT_TOL
) -> ObliqueDecomposition:
    """The idempotent with range span(onto) and kernel span(along)."""
    onto, along = as_complex(onto), as_complex(along)
    proj = oblique_projector(onto, along, tol)
    e = proj.matrix
    resid = op_norm(e @ e - e) / max(op_norm(e), 1e-300)
    return ObliqueDecomposition(
        ambient=e.shape[0],
        idempotent=e,
        image_basis=orthonormal_image(onto, tol, scale=1.0)[0] if onto.shape[1] else onto,
        kernel_basis=orthonormal_image(along, tol, scale=1.0)[0] if along.shape[1] else along,
        norm=proj.norm,
        cond=proj.cond,
        idempotency_residual=float(resid),
        ill_posed=proj.norm > tol.ill_posed_projector_norm,
    )


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
    kernel_basis: Array
    image_basis: Array
    ker_decomposition: ObliqueDecomposition  # of the domain: complement (+) ker T
    im_decomposition: ObliqueDecomposition  # of the codomain: Im T (+) complement
    rank: int
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def domain_dim(self) -> int:
        return self.t.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.t.shape[0]

    @property
    def dim_ker(self) -> int:
        return self.kernel_basis.shape[1]

    @property
    def codim_im(self) -> int:
        return self.codomain_dim - self.rank

    @property
    def ker_complement(self) -> Array:
        return self.ker_decomposition.image_basis

    @property
    def im_complement(self) -> Array:
        return self.im_decomposition.kernel_basis

    @property
    def ill_posed(self) -> bool:
        return self.ker_decomposition.ill_posed or self.im_decomposition.ill_posed


def make_regular(
    t: Array,
    ker_complement: Array,
    im_complement: Array,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RegularOperator:
    """Generalized inverse of ``t`` for explicitly chosen complements.

    ``ker_complement`` must complement ker T in the domain and
    ``im_complement`` must complement Im T in the codomain; violations
    raise with the offending dimensions.
    """
    t = as_complex(t)
    scale = max(op_norm(t), 1e-300)
    kernel, _ = null_space(t, tol, scale=scale)
    image, img_data = orthonormal_image(t, tol, scale=scale)
    ker_complement = as_complex(ker_complement)
    im_complement = as_complex(im_complement)

    try:
        ker_dec = oblique_decomposition(ker_complement, kernel, tol)
    except UnmetHypothesisError as exc:
        raise UnmetHypothesisError(
            f"kernel complement (dim {ker_complement.shape[1]}) does not complement "
            f"ker T (dim {kernel.shape[1]}) in C^{t.shape[1]}: {exc}"
        ) from exc
    try:
        im_dec = oblique_decomposition(image, im_complement, tol)
    except UnmetHypothesisError as exc:
        raise UnmetHypothesisError(
            f"range complement (dim {im_complement.shape[1]}) does not complement "
            f"Im T (dim {image.shape[1]}) in C^{t.shape[0]}: {exc}"
        ) from exc

    kc = ker_dec.image_basis
    e_y = im_dec.idempotent
    t_on_kc = t @ kc
    tprime = kc @ np.linalg.pinv(t_on_kc) @ e_y if kc.shape[1] else np.zeros((t.shape[1], t.shape[0]), complex)

    r1 = op_norm(t @ tprime @ t - t) / scale
    nprime = max(op_norm(tprime), 1e-300)
    r2 = op_norm(tprime @ t @ tprime - tprime) / nprime
    r3 = op_norm(t @ tprime - e_y) / max(op_norm(e_y), 1.0)
    r4 = op_norm(tprime @ t - ker_dec.idempotent) / max(op_norm(ker_dec.idempotent), 1.0)
    return RegularOperator(
        t=t,
        tprime=tprime,
        kernel_basis=kernel,
        image_basis=image,
        ker_decomposition=ker_dec,
        im_decomposition=im_dec,
        rank=img_data.rank,
        residuals={
            "ttprime_t": float(r1),
            "tprime_t_tprime": float(r2),
            "tt_is_im_projection": float(r3),
            "t_t_is_ker_projection": float(r4),
        },
    )


def make_regular_orthogonal(t: Array, tol: ToleranceConfig = DEFAULT_TOL) -> RegularOperator:
    """The orthogonal-complement choice, made explicitly.

    With both complements orthogonal the generalized inverse is the
    Moore-Penrose pseudoinverse.
    """
    t = as_complex(t)
    scale = max(op_norm(t), 1e-300)
    kernel, _ = null_space(t, tol, scale=scale)
    image, _ = orthonormal_image(t, tol, scale=scale)
    return make_regular(t, complement(kernel, t.shape[1]), complement(image, t.shape[0]), tol)


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
    z1 = max(0, reg.codim_im - reg.dim_ker)
    z2 = max(0, reg.dim_ker - reg.codim_im)
    if reg.dim_ker + z1 != reg.codim_im + z2:
        raise IdentityViolation("witness balance failed")
    return BanachWitness(z1, z2)


# ---------------------------------------------------------------------------
# finite-rank perturbation


@dataclass(frozen=True, eq=False)
class PerturbationRecord:
    """Proof pipeline for T -> T + F with F of finite rank.

    Spaces: W = T(ker F); N / N' are the parts of Im T / Im(T+F)
    transverse to W; M / M' complete ker T / ker(T+F) over the common
    core ker T ∩ ker F; V completes Im(T+F) to the whole codomain.
    The dimension identity balances all of them against T's witness.
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
    v_basis: Array
    perturbed: RegularOperator
    projector_norms: dict[str, float]
    ill_posed: bool

    @property
    def identity_holds(self) -> bool:
        return self.lhs == self.rhs


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
    nt, nf = op_norm(t), op_norm(f)
    tf = t + f
    scale_sum = max(nt + nf, 1e-300)

    rank_f = svd_data(f, tol, scale=max(nf, 1e-300)).rank
    ker_f, _ = null_space(f, tol, scale=max(nf, 1e-300))

    w, _ = orthonormal_image(t @ ker_f, tol, scale=max(nt, 1e-300)) if ker_f.shape[1] else (
        empty_basis(t.shape[0]),
        None,
    )
    q_proj = np.eye(t.shape[0], dtype=complex) - (w @ w.conj().T if w.shape[1] else 0.0)
    p_proj = ker_f @ ker_f.conj().T if ker_f.shape[1] else np.zeros((t.shape[1], t.shape[1]), complex)
    p_proj = np.eye(t.shape[1], dtype=complex) - p_proj

    im_t = reg.image_basis
    im_tf, _ = orthonormal_image(tf, tol, scale=scale_sum)
    n_space, _ = orthonormal_image(q_proj @ im_t, tol, scale=1.0) if im_t.shape[1] else (
        empty_basis(t.shape[0]), None)
    n_prime, _ = orthonormal_image(q_proj @ im_tf, tol, scale=1.0) if im_tf.shape[1] else (
        empty_basis(t.shape[0]), None)

    ker_t = reg.kernel_basis
    ker_tf, _ = null_space(tf, tol, scale=scale_sum)
    common, _ = intersect(ker_t, ker_f, tol)
    common2, _ = intersect(ker_tf, ker_f, tol)
    if common.shape[1] != common2.shape[1]:
        raise IdentityViolation(
            "ker(T+F) ∩ ker F and ker T ∩ ker F have different dimensions "
            f"({common2.shape[1]} vs {common.shape[1]})"
        )
    m_space, _ = orthonormal_image(p_proj @ ker_t, tol, scale=1.0) if ker_t.shape[1] else (
        empty_basis(t.shape[1]), None)
    m_prime, _ = orthonormal_image(p_proj @ ker_tf, tol, scale=1.0) if ker_tf.shape[1] else (
        empty_basis(t.shape[1]), None)

    # Y = W (+) N' (+) V: V completes Im(T+F) = W (+) N'.
    w_plus_np, _ = orthonormal_image(np.hstack([w, n_prime]), tol, scale=1.0) if (
        w.shape[1] + n_prime.shape[1]
    ) else (empty_basis(t.shape[0]), None)
    if w_plus_np.shape[1] != im_tf.shape[1]:
        raise IdentityViolation(
            f"Im(T+F) should split as T(ker F) (+) N' "
            f"({w.shape[1]} + {n_prime.shape[1]} vs rank {im_tf.shape[1]})"
        )
    v_basis = complement(w_plus_np, t.shape[0])

    perturbed = make_regular(tf, complement(ker_tf, t.shape[1]), v_basis, tol)

    wit = defect_witness(reg)
    lhs = ker_tf.shape[1] + m_space.shape[1] + n_space.shape[1] + wit.z1
    rhs = (t.shape[0] - im_tf.shape[1]) + m_prime.shape[1] + n_prime.shape[1] + wit.z2
    if lhs != rhs:
        raise IdentityViolation(
            f"perturbation dimension identity failed: {lhs} != {rhs}"
        )
    return PerturbationRecord(
        rank_f=rank_f,
        w_dim=w.shape[1],
        n_dim=n_space.shape[1],
        n_prime_dim=n_prime.shape[1],
        m_dim=m_space.shape[1],
        m_prime_dim=m_prime.shape[1],
        common_kernel_dim=common.shape[1],
        kernel_perturbed_dim=ker_tf.shape[1],
        codim_perturbed=t.shape[0] - im_tf.shape[1],
        witness=wit,
        lhs=lhs,
        rhs=rhs,
        v_basis=v_basis,
        perturbed=perturbed,
        projector_norms={
            "onto_ker_complement": float(op_norm(p_proj)),
            "onto_w_complement": float(op_norm(q_proj)),
            "perturbed_im_projector": perturbed.im_decomposition.norm,
        },
        ill_posed=perturbed.ill_posed or reg.ill_posed,
    )


# ---------------------------------------------------------------------------
# products of regular operators


@dataclass(frozen=True, eq=False)
class ProductRecord:
    """Composition data for regular S after regular T.

    ``tu`` is the generalized inverse of S restricted to T(X), built
    from the product's own generalized inverse; ``meet_dim`` is the
    dimension of S^{-1}(0) ∩ T(X).  The six-space sequence uses the
    three chosen range complements as quotient realisations; its
    alternating dimension sum vanishing is the index theorem.
    """

    st: RegularOperator
    tu: Array
    tu_residuals: dict[str, float]
    meet_dim: int
    gw_t: bool
    gw_s: bool
    gw_st: bool
    verdict: bool
    chain_dims: tuple[int, ...]
    node_residuals: tuple[float, ...]
    injectivity_defect: float
    surjectivity_defect: float
    alternating_sum: int
    witness_lhs: int
    witness_rhs: int
    ill_posed: bool

    @property
    def witness_identity_holds(self) -> bool:
        return self.witness_lhs == self.witness_rhs


def banach_product(
    s_reg: RegularOperator, t_reg: RegularOperator, tol: ToleranceConfig = DEFAULT_TOL
) -> ProductRecord:
    """Certify the composition of two regular operators (S after T)."""
    s, t = s_reg.t, t_reg.t
    if s.shape[1] != t.shape[0]:
        raise StructureError("operators are not composable (S after T)")
    st = s @ t
    try:
        st_reg = make_regular_orthogonal(st, tol)
    except UnmetHypothesisError as exc:  # pragma: no cover - full rank always splits
        raise UnmetHypothesisError(f"product is not regular: {exc}") from exc

    # TU := T (ST)' is a generalized inverse of S restricted to T(X).
    tu = t @ st_reg.tprime
    q_tx = t_reg.image_basis
    scale_s = max(op_norm(s), 1e-300)
    a_on_tx = s @ q_tx
    r_aba = op_norm(s @ tu @ a_on_tx - a_on_tx) / scale_s
    ntu = max(op_norm(tu), 1e-300)
    r_bab = op_norm(tu @ s @ tu - tu) / ntu
    meet, _ = intersect(s_reg.kernel_basis, q_tx, tol)

    gw_t = generalized_weyl_banach(t_reg)
    gw_s = generalized_weyl_banach(s_reg)
    gw_st = generalized_weyl_banach(st_reg)
    if gw_t and gw_s and not gw_st:
        raise IdentityViolation(
            "product of generalized Weyl operators failed to be generalized Weyl"
        )

    # Six-space sequence through the oblique quotient realisations.
    scale_t = max(op_norm(t), 1e-300)
    ker_st = st_reg.kernel_basis
    spaces = (
        t_reg.kernel_basis,
        ker_st,
        s_reg.kernel_basis,
        orthonormal_image(t_reg.im_complement, tol, scale=1.0)[0]
        if t_reg.im_complement.shape[1]
        else t_reg.im_complement,
        st_reg.im_complement,
        orthonormal_image(s_reg.im_complement, tol, scale=1.0)[0]
        if s_reg.im_complement.shape[1]
        else s_reg.im_complement,
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
    nodes, inj, surj = chain_exactness(list(dims), list(maps), tol)
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
        tu=tu,
        tu_residuals={"s_tu_s": float(r_aba), "tu_s_tu": float(r_bab)},
        meet_dim=meet.shape[1],
        gw_t=gw_t,
        gw_s=gw_s,
        gw_st=gw_st,
        verdict=not (gw_t and gw_s) or gw_st,
        chain_dims=dims,
        node_residuals=tuple(n.residual for n in nodes),
        injectivity_defect=inj,
        surjectivity_defect=surj,
        alternating_sum=alt,
        witness_lhs=lhs,
        witness_rhs=rhs,
        ill_posed=s_reg.ill_posed or t_reg.ill_posed or st_reg.ill_posed,
    )
