"""Index theory for module maps: reports, witnesses, and chain identities.

In this finite-dimensional model every map has closed range and finitely
generated kernel and cokernel, so *membership* questions (Fredholm,
generalized Weyl with witnesses) are universally answered yes.  What the
reports certify is quantitative: the K0 classes themselves, the witness
pads that balance kernel against cokernel, the six-term exact sequence
of a composition, and two bookkeeping identities in K0 — one for
finite-rank perturbations, one for compositions — that follow the
constructive proofs step by step.  Those identities are exact integer
statements once the rank decisions underneath are sound, so their
failure raises instead of flagging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolation, StructureError
from .linmap import AdjointableMap, commutator_residual
from .modules import K0Class, Submodule
from .subspace import _stickout, chains_exactness, herm, stacked
from .tolerances import DEFAULT_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "FredholmReport",
    "WitnessPair",
    "ExactSequenceReport",
    "ChainReport",
    "ProductChainReport",
    "BFredholmReport",
    "BFredholmCommutingReport",
    "fredholm_report",
    "weyl_defect_witness",
    "exact_sequence",
    "weyl_perturbation_chain",
    "product_chain",
    "b_fredholm_report",
    "b_fredholm_commuting_check",
]

# ---------------------------------------------------------------------------
# basic reports


@dataclass(frozen=True, eq=False)
class FredholmReport:
    """Kernel/cokernel bookkeeping of a single map."""

    kernel: Submodule
    image: Submodule
    coker_space: Submodule
    index: K0Class
    is_weyl_zero_index: bool
    is_generalized_weyl: bool
    margin: float


def fredholm_report(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> FredholmReport:
    ker, img, coker = f.kernel(tol), f.image(tol), f.cokernel(tol)
    index = ker.k0() - coker.k0()
    return FredholmReport(
        kernel=ker,
        image=img,
        coker_space=coker,
        index=index,
        is_weyl_zero_index=index.is_zero(),
        is_generalized_weyl=ker.k0().entries == coker.k0().entries,
        margin=f.singular_data(tol).margin,
    )


@dataclass(frozen=True)
class WitnessPair:
    """Minimal pads making kernel and cokernel classes equal.

    ``k0(ker) + pad_kernel == k0(coker) + pad_cokernel`` with both pads
    nonnegative and at least one entry zero per block.
    """

    pad_kernel: K0Class
    pad_cokernel: K0Class


def weyl_defect_witness(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> WitnessPair:
    """The pads of F, read off the classes of its kernel and cokernel under
    F's one rank decision."""
    ker, cok = f.kernel(tol).k0(), f.cokernel(tol).k0()
    return WitnessPair((cok - ker).positive_part(), (ker - cok).positive_part())


# ---------------------------------------------------------------------------
# six-term exact sequence of a composition


@dataclass(frozen=True, eq=False)
class ExactSequenceReport:
    """0 -> ker f -> ker gf -> ker g -> (Im f)perp -> (Im gf)perp -> (Im g)perp -> 0.

    Connecting maps: inclusion, the map itself, and orthogonal
    projections onto the complement spaces.  The sequence is certified
    per algebra block, on the column bases of the six submodules (the
    flat sequence is each block's tensored with I_{n_b}): each arrow is
    one stacked product per group of blocks, and every residual is the
    worst over blocks.  ``node_residuals`` are worst-of
    composition norm and principal-angle defect at each interior node;
    ``map_containment_residuals`` measure how far the inclusion and the
    f-arrow leave their targets.  The six spaces are read off the rank
    decisions of f, g and gf, each map's kernel and cokernel from one SVD
    under one cutoff, so the alternating sums of ``dims`` and ``classes``
    vanish and ``index_gf == index_f + index_g`` by construction.
    """

    spaces: tuple[Submodule, ...]
    dims: tuple[int, ...]
    classes: tuple[K0Class, ...]
    node_residuals: tuple[float, ...]
    map_containment_residuals: tuple[float, ...]
    injectivity_defect: float
    surjectivity_defect: float
    index_f: K0Class
    index_g: K0Class
    index_gf: K0Class

    @property
    def worst_residual(self) -> float:
        pool = self.node_residuals + self.map_containment_residuals
        return max(pool + (self.injectivity_defect, self.surjectivity_defect), default=0.0)


def _coordinates(target: Array, x: Array) -> Array:
    """x in the orthonormal column basis of ``target``: target^H x."""
    return herm(target) @ x


def exact_sequence(
    f: AdjointableMap, g: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> ExactSequenceReport:
    """Exactness certificate for the composition g after f."""
    if f.shape != g.shape or g.m != f.n:
        raise StructureError("maps are not composable (g after f)")
    gf = g @ f
    ker_f, im_f_perp = f.kernel(tol), f.cokernel(tol)
    ker_g, im_g_perp = g.kernel(tol), g.cokernel(tol)
    nf, ng = f.norm(), g.norm()
    ker_gf, im_gf_perp = gf.kernel(tol, scale=nf * ng), gf.cokernel(tol, scale=nf * ng)

    spaces = (ker_f, ker_gf, ker_g, im_f_perp, im_gf_perp, im_g_perp)
    dims = tuple(s.dim for s in spaces)

    # Per block, in node column-basis coordinates, with the f- and g-arrows
    # normalised so every map is O(1).  The two restriction arrows
    # (inclusion, and f from ker gf into ker g) must genuinely land in
    # their targets; the projection arrows carry no such requirement.
    w = [s.groups for s in spaces]
    unit_f = f.groups.map(lambda c: c / max(nf, 1e-300))
    unit_g = g.groups.map(lambda c: c / max(ng, 1e-300))
    moved = stacked(np.matmul, unit_f, w[1])
    arrows = [
        stacked(_coordinates, w[1], w[0]),
        stacked(_coordinates, w[2], moved),
        stacked(_coordinates, w[3], w[2]),
        stacked(_coordinates, w[4], stacked(np.matmul, unit_g, w[3])),
        stacked(_coordinates, w[5], w[4]),
    ]
    nodes, inj, surj = chains_exactness(arrows, tol)

    return ExactSequenceReport(
        spaces=spaces,
        dims=dims,
        classes=tuple(s.k0() for s in spaces),
        node_residuals=tuple(max(node.tolist()) for node in nodes),
        map_containment_residuals=(_stickout(w[1], w[0]), _stickout(w[2], moved)),
        injectivity_defect=max(inj.tolist()),
        surjectivity_defect=max(surj.tolist()),
        index_f=ker_f.k0() - im_f_perp.k0(),
        index_g=ker_g.k0() - im_g_perp.k0(),
        index_gf=ker_gf.k0() - im_gf_perp.k0(),
    )


# ---------------------------------------------------------------------------
# perturbation chain


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Constructive K0 balance for a finite-rank perturbation T -> T + F.

    ``splitting_image``: T(ker F), shared by Im T and Im (T+F).  With
    N / N' the parts of Im T / Im (T+F) transverse to it, M / M' the
    parts of ker T / ker (T+F) over their common core ker T ∩ ker F, and
    the defect pads R / R' of T, the classes balance exactly, ``lhs`` =
    [ker(T+F)] + [M] + [N] + [R] == [Im(T+F)perp] + [M'] + [N'] + [R'] = ``rhs``.
    """

    perturbation_class: K0Class
    splitting_image: Submodule
    witness: WitnessPair
    kernel_perturbed: Submodule
    lhs: K0Class
    rhs: K0Class
    margin: float
    residuals: dict[str, float] = field(default_factory=dict)


def weyl_perturbation_chain(
    t: AdjointableMap, f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> ChainReport:
    """Build and verify the perturbation identity for T and finite-class F."""
    if t.shape != f.shape or t.m != f.m or t.n != f.n:
        raise StructureError("T and F must act between the same modules")
    ker_f = f.kernel(tol)
    perturb_class = K0Class.free(f.shape, f.m) - ker_f.k0()  # class of Im F

    im_t = t.image(tol)
    w = t.image_step(ker_f, tol)[0]  # T(ker F)
    scale_sum = t.norm() + f.norm()
    tf = t + f
    im_tf = tf.image(tol, scale=scale_sum)

    ok_w1, r_w1 = im_t.contains(w, tol)
    ok_w2, r_w2 = im_tf.contains(w, tol)
    if not (ok_w1 and ok_w2):
        raise IdentityViolation(
            f"T(ker F) escaped Im T / Im(T+F) (residuals {r_w1:.2e}, {r_w2:.2e})"
        )

    w_perp = w.complement()
    n_part, gap_n = im_t.intersection(w_perp)
    n_part_p, gap_np = im_tf.intersection(w_perp)

    ker_t, ker_tf = t.kernel(tol), tf.kernel(tol, scale=scale_sum)
    common, gap_c = ker_t.intersection(ker_f)
    common2, gap_c2 = ker_tf.intersection(ker_f)
    if not common.equals(common2, tol):
        raise IdentityViolation(
            "ker(T+F) ∩ ker F differs from ker T ∩ ker F "
            f"({common2.k0()} vs {common.k0()})"
        )

    common_perp = common.complement()
    m_part, gap_m = ker_t.intersection(common_perp)
    m_part_p, gap_mp = ker_tf.intersection(common_perp)

    witness = weyl_defect_witness(t, tol)
    coker_tf = tf.cokernel(tol, scale=scale_sum).k0()

    lhs = ker_tf.k0() + m_part.k0() + n_part.k0() + witness.pad_kernel
    rhs = coker_tf + m_part_p.k0() + n_part_p.k0() + witness.pad_cokernel
    if lhs.entries != rhs.entries:
        raise IdentityViolation(
            f"perturbation chain identity failed: {lhs} != {rhs}; "
            "this balance is forced by the construction, so a rank decision broke"
        )

    return ChainReport(
        perturbation_class=perturb_class,
        splitting_image=w,
        witness=witness,
        kernel_perturbed=ker_tf,
        lhs=lhs,
        rhs=rhs,
        margin=min(
            f.singular_data(tol).margin,
            t.singular_data(tol).margin,
            tf.singular_data(tol, scale=scale_sum).margin,
            gap_n,
            gap_np,
            gap_c,
            gap_c2,
            gap_m,
            gap_mp,
        ),
        residuals={"w_in_im_t": r_w1, "w_in_im_tf": r_w2},
    )


# ---------------------------------------------------------------------------
# product chain


@dataclass(frozen=True, eq=False)
class ProductChainReport:
    """Witness balance for a composition: the pads of the factors absorb
    the kernel/cokernel mismatch of the product exactly."""

    kernel_product: Submodule
    lhs: K0Class
    rhs: K0Class
    margin: float


def product_chain(
    d: AdjointableMap, f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> ProductChainReport:
    """Verify the K0 balance for the composition d after f."""
    if d.shape != f.shape or d.m != f.n:
        raise StructureError("maps are not composable (d after f)")
    wf, wd = weyl_defect_witness(f, tol), weyl_defect_witness(d, tol)
    df, scale = d @ f, d.norm() * f.norm()
    ker_df = df.kernel(tol, scale=scale)
    coker_df = df.cokernel(tol, scale=scale).k0()
    lhs = ker_df.k0() + wf.pad_kernel + wd.pad_kernel
    rhs = coker_df + wf.pad_cokernel + wd.pad_cokernel
    if lhs.entries != rhs.entries:
        raise IdentityViolation(f"product chain identity failed: {lhs} != {rhs}")
    return ProductChainReport(
        kernel_product=ker_df,
        lhs=lhs,
        rhs=rhs,
        margin=min(
            df.singular_data(tol, scale=scale).margin,
            f.singular_data(tol).margin,
            d.singular_data(tol).margin,
        ),
    )


# ---------------------------------------------------------------------------
# B-Fredholm structure (power-rank stabilization)


@dataclass(frozen=True, eq=False)
class BFredholmReport:
    """Stabilization data of the power-image chain of an endomorphism.

    ``stabilization_exponent`` (the index n) and ``rank_chain`` are read
    off the kernel staircase of the map's power chain, and
    ``stable_image`` = Im F^n off its image staircase.  F restricted to
    Im F^n (Berkani's T_n) is then invertible: the chain's core–nilpotent
    split Im F^n +' ker F^n must be nonsingular, F block-diagonal on it,
    and the rank decision on F's core block, made at the scale ||F||, must
    find full rank.
    ``restricted_gamma`` is that block's smallest singular value (+inf on
    the zero space), the ``core_gamma`` of the Drazin report.  ker F
    meets Im F^n only in 0: ker F lies in ker F^n, the other summand.
    """

    stabilization_exponent: int
    rank_chain: tuple[int, ...]
    stable_image: Submodule
    restricted_gamma: float
    margin: float


def b_fredholm_report(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> BFredholmReport:
    if not f.is_endomorphism:
        raise StructureError("power stabilization needs an endomorphism")
    chain = f.power_chain(tol)
    n = chain.index
    return BFredholmReport(
        stabilization_exponent=n,
        rank_chain=chain.rank_chain,
        stable_image=chain.image(n),
        restricted_gamma=chain.core.gamma_f1,
        margin=chain.margin,
    )


@dataclass(frozen=True, eq=False)
class BFredholmCommutingReport:
    """Power stabilization of a commuting pair and of its product, and the
    meets of each factor's kernel with the product's stable image (both
    certified zero)."""

    report_f: BFredholmReport
    report_d: BFredholmReport
    report_product: BFredholmReport
    commutator_residual: float
    kernel_f_meet_stable: Submodule
    kernel_d_meet_stable: Submodule


def b_fredholm_commuting_check(
    f: AdjointableMap, d: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> BFredholmCommutingReport:
    comm = commutator_residual(f, d)
    rep_f = b_fredholm_report(f, tol)
    rep_d = b_fredholm_report(d, tol)
    rep_p = b_fredholm_report(d @ f, tol)
    stable = rep_p.stable_image
    meet_f, _ = f.kernel(tol).intersection(stable)
    meet_d, _ = d.kernel(tol).intersection(stable)
    # A vector of Im(DF)^n in ker F or ker D lies in ker DF, and DF is
    # invertible on Im(DF)^n: both meets are zero.
    for name, meet in (("F", meet_f), ("D", meet_d)):
        if meet.dim:
            raise IdentityViolation(
                f"ker {name} meets the stable image Im(DF)^n in dimension {meet.dim}"
            )
    return BFredholmCommutingReport(
        report_f=rep_f,
        report_d=rep_d,
        report_product=rep_p,
        commutator_residual=float(comm),
        kernel_f_meet_stable=meet_f,
        kernel_d_meet_stable=meet_d,
    )
