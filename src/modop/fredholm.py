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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentityViolation, StructureError
from .linmap import AdjointableMap, RestrictedEndomorphism, commutator_residual
from .modules import K0Class, Submodule
from .subspace import chain_exactness, op_norm
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
    "generalized_weyl_check",
    "weyl_defect_witness",
    "exact_sequence",
    "weyl_perturbation_chain",
    "product_chain",
    "b_fredholm_report",
    "b_fredholm_commuting_check",
]

MODEL_NOTE = (
    "finite-dimensional model: ranges are closed and defect witnesses always "
    "exist; the quantitative content is in the classes, margins, and identities"
)


def _min_margin(*vals: float) -> float:
    finite = [v for v in vals if v is not None]
    return float(min(finite)) if finite else math.inf


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
    note: str = MODEL_NOTE

    @property
    def kernel_class(self) -> K0Class:
        return self.kernel.k0()

    @property
    def coker_class(self) -> K0Class:
        return self.coker_space.k0()


def fredholm_report(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> FredholmReport:
    scale = f.norm()
    ker = f.kernel(tol, scale=scale)
    img = f.image(tol, scale=scale)
    coker = img.complement()
    index = ker.k0() - coker.k0()
    expected = K0Class.free(f.shape, f.m) - K0Class.free(f.shape, f.n)
    if index.entries != expected.entries:
        raise IdentityViolation(
            f"rank-nullity violated: index {index} != {expected} "
            "(per-block rank decisions are inconsistent)"
        )
    margin = _min_margin(
        f.singular_data(tol, scale=scale).margin,
    )
    return FredholmReport(
        kernel=ker,
        image=img,
        coker_space=coker,
        index=index,
        is_weyl_zero_index=index.is_zero(),
        is_generalized_weyl=ker.k0().entries == coker.k0().entries,
        margin=margin,
    )


def generalized_weyl_check(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether kernel and cokernel classes match, plus the decision margin."""
    rep = fredholm_report(f, tol)
    return rep.is_generalized_weyl, rep.margin


@dataclass(frozen=True)
class WitnessPair:
    """Minimal pads making kernel and cokernel classes equal.

    ``k0(ker) + pad_kernel == k0(coker) + pad_cokernel`` with both pads
    nonnegative and at least one entry zero per block.
    """

    pad_kernel: K0Class
    pad_cokernel: K0Class


def weyl_defect_witness(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> WitnessPair:
    rep = fredholm_report(f, tol)
    ker, cok = rep.kernel_class, rep.coker_class
    pad_k = (cok - ker).positive_part()
    pad_c = (ker - cok).positive_part()
    if (ker + pad_k).entries != (cok + pad_c).entries:
        raise IdentityViolation("witness balance failed")
    return WitnessPair(pad_k, pad_c)


# ---------------------------------------------------------------------------
# six-term exact sequence of a composition


@dataclass(frozen=True, eq=False)
class ExactSequenceReport:
    """0 -> ker f -> ker gf -> ker g -> (Im f)perp -> (Im gf)perp -> (Im g)perp -> 0.

    Connecting maps: inclusion, the map itself, and orthogonal
    projections onto the complement spaces.  ``node_residuals`` are
    worst-of composition norm and principal-angle defect at each
    interior node; the alternating sums are exact integer checks.
    """

    spaces: tuple[Submodule, ...]
    dims: tuple[int, ...]
    classes: tuple[K0Class, ...]
    maps: tuple[Array, ...]
    node_residuals: tuple[float, ...]
    map_containment_residuals: tuple[float, ...]
    injectivity_defect: float
    surjectivity_defect: float
    alternating_dim_sum: int
    alternating_k0_sum: K0Class
    index_f: K0Class
    index_g: K0Class
    index_gf: K0Class

    @property
    def worst_residual(self) -> float:
        pool = self.node_residuals + self.map_containment_residuals
        return max(pool + (self.injectivity_defect, self.surjectivity_defect), default=0.0)

    @property
    def index_additive(self) -> bool:
        return self.index_gf.entries == (self.index_f + self.index_g).entries


def exact_sequence(
    f: AdjointableMap, g: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> ExactSequenceReport:
    """Exactness certificate for the composition g after f."""
    if f.shape != g.shape or g.m != f.n:
        raise StructureError("maps are not composable (g after f)")
    gf = g @ f
    nf, ng = f.norm(), g.norm()
    rep_f = fredholm_report(f, tol)
    rep_g = fredholm_report(g, tol)

    ker_f = rep_f.kernel
    ker_gf = gf.kernel(tol, scale=nf * ng)
    ker_g = rep_g.kernel
    im_f_perp = rep_f.coker_space
    im_gf_perp = gf.image(tol, scale=nf * ng).complement()
    im_g_perp = rep_g.coker_space

    spaces = (ker_f, ker_gf, ker_g, im_f_perp, im_gf_perp, im_g_perp)
    bases = [s.flat_basis for s in spaces]
    dims = tuple(s.dim for s in spaces)

    # Connecting maps in node coordinates, with the f- and g-arrows
    # normalised so every map is O(1).  The two restriction arrows
    # (inclusion, and f from ker gf into ker g) must genuinely land in
    # their targets; the projection arrows carry no such requirement.
    f_real = f.realization / max(nf, 1e-300)
    g_real = g.realization / max(ng, 1e-300)
    maps = (
        bases[1].conj().T @ bases[0],
        bases[2].conj().T @ (f_real @ bases[1]),
        bases[3].conj().T @ bases[2],
        bases[4].conj().T @ (g_real @ bases[3]),
        bases[5].conj().T @ bases[4],
    )

    def _stickout(target: Array, moved: Array) -> float:
        if moved.shape[1] == 0:
            return 0.0
        proj = target @ (target.conj().T @ moved) if target.shape[1] else np.zeros_like(moved)
        return op_norm(moved - proj)

    containments = (
        _stickout(bases[1], bases[0]),
        _stickout(bases[2], f_real @ bases[1]),
    )

    nodes, inj, surj = chain_exactness(list(dims), list(maps), tol)
    node_residuals = tuple(n.residual for n in nodes)

    classes = tuple(s.k0() for s in spaces)
    alt_dim = dims[0] - dims[1] + dims[2] - dims[3] + dims[4] - dims[5]
    alt_k0 = classes[0] - classes[1] + classes[2] - classes[3] + classes[4] - classes[5]

    index_gf = ker_gf.k0() - im_gf_perp.k0()
    return ExactSequenceReport(
        spaces=spaces,
        dims=dims,
        classes=classes,
        maps=maps,
        node_residuals=node_residuals,
        map_containment_residuals=containments,
        injectivity_defect=inj,
        surjectivity_defect=surj,
        alternating_dim_sum=alt_dim,
        alternating_k0_sum=alt_k0,
        index_f=rep_f.index,
        index_g=rep_g.index,
        index_gf=index_gf,
    )


# ---------------------------------------------------------------------------
# perturbation chain


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Constructive K0 balance for a finite-rank perturbation T -> T + F.

    ``splitting_image``: T(ker F), shared by Im T and Im (T+F).
    ``new_image_part``/``new_image_part_perturbed``: the parts of Im T /
    Im (T+F) transverse to it.  ``kernel_part``/``kernel_part_perturbed``
    complete ker T / ker (T+F) over their common core ker T ∩ ker F.
    Together with the defect pads of T these balance exactly:
    [ker(T+F)] + [M] + [N] + [R] == [Im(T+F)perp] + [M'] + [N'] + [R'].
    """

    perturbation_class: K0Class
    splitting_image: Submodule
    new_image_part: Submodule
    new_image_part_perturbed: Submodule
    common_kernel: Submodule
    kernel_part: Submodule
    kernel_part_perturbed: Submodule
    witness: WitnessPair
    kernel_perturbed: Submodule
    coker_class_perturbed: K0Class
    lhs: K0Class
    rhs: K0Class
    margin: float
    residuals: dict[str, float] = field(default_factory=dict)
    note: str = MODEL_NOTE

    @property
    def identity_holds(self) -> bool:
        return self.lhs.entries == self.rhs.entries


def weyl_perturbation_chain(
    t: AdjointableMap, f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> ChainReport:
    """Build and verify the perturbation identity for T and finite-class F."""
    if t.shape != f.shape or t.m != f.m or t.n != f.n:
        raise StructureError("T and F must act between the same modules")
    nt, nf = t.norm(), f.norm()
    scale_sum = nt + nf
    tf = t + f

    ker_f = f.kernel(tol, scale=nf)
    perturb_class = K0Class.free(f.shape, f.m) - ker_f.k0()  # class of Im F

    w = t.apply_to_submodule(ker_f, tol)  # T(ker F)
    im_t = t.image(tol, scale=nt)
    im_tf = tf.image(tol, scale=scale_sum)

    ok_w1, r_w1 = im_t.contains(w, tol)
    ok_w2, r_w2 = im_tf.contains(w, tol)
    if not (ok_w1 and ok_w2):
        raise IdentityViolation(
            f"T(ker F) escaped Im T / Im(T+F) (residuals {r_w1:.2e}, {r_w2:.2e})"
        )

    w_perp = w.complement()
    n_part, gap_n = im_t.intersection(w_perp, tol)
    n_part_p, gap_np = im_tf.intersection(w_perp, tol)

    ker_t = t.kernel(tol, scale=nt)
    ker_tf = tf.kernel(tol, scale=scale_sum)
    common, gap_c = ker_t.intersection(ker_f, tol)
    common2, gap_c2 = ker_tf.intersection(ker_f, tol)
    if not common.equals(common2, tol):
        raise IdentityViolation(
            "ker(T+F) ∩ ker F differs from ker T ∩ ker F "
            f"({common2.k0()} vs {common.k0()})"
        )

    common_perp = common.complement()
    m_part, gap_m = ker_t.intersection(common_perp, tol)
    m_part_p, gap_mp = ker_tf.intersection(common_perp, tol)

    witness = weyl_defect_witness(t, tol)
    coker_tf = K0Class.free(t.shape, t.n) - im_tf.k0()

    lhs = ker_tf.k0() + m_part.k0() + n_part.k0() + witness.pad_kernel
    rhs = coker_tf + m_part_p.k0() + n_part_p.k0() + witness.pad_cokernel
    if lhs.entries != rhs.entries:
        raise IdentityViolation(
            f"perturbation chain identity failed: {lhs} != {rhs}; "
            "this balance is forced by the construction, so a rank decision broke"
        )

    margin = _min_margin(
        f.singular_data(tol, scale=nf).margin,
        t.singular_data(tol, scale=nt).margin,
        tf.singular_data(tol, scale=scale_sum).margin,
        gap_n,
        gap_np,
        gap_c,
        gap_c2,
        gap_m,
        gap_mp,
    )
    return ChainReport(
        perturbation_class=perturb_class,
        splitting_image=w,
        new_image_part=n_part,
        new_image_part_perturbed=n_part_p,
        common_kernel=common,
        kernel_part=m_part,
        kernel_part_perturbed=m_part_p,
        witness=witness,
        kernel_perturbed=ker_tf,
        coker_class_perturbed=coker_tf,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        residuals={"w_in_im_t": r_w1, "w_in_im_tf": r_w2},
    )


# ---------------------------------------------------------------------------
# product chain


@dataclass(frozen=True, eq=False)
class ProductChainReport:
    """Witness balance for a composition: the pads of the factors absorb
    the kernel/cokernel mismatch of the product exactly."""

    kernel_product: Submodule
    coker_class_product: K0Class
    witness_first: WitnessPair
    witness_second: WitnessPair
    lhs: K0Class
    rhs: K0Class
    margin: float
    note: str = MODEL_NOTE

    @property
    def identity_holds(self) -> bool:
        return self.lhs.entries == self.rhs.entries


def product_chain(
    d: AdjointableMap, f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> ProductChainReport:
    """Verify the K0 balance for the composition d after f."""
    if d.shape != f.shape or d.m != f.n:
        raise StructureError("maps are not composable (d after f)")
    df = d @ f
    scale = d.norm() * f.norm()
    ker_df = df.kernel(tol, scale=scale)
    coker_df = K0Class.free(d.shape, d.n) - df.image(tol, scale=scale).k0()
    wf = weyl_defect_witness(f, tol)
    wd = weyl_defect_witness(d, tol)
    lhs = ker_df.k0() + wf.pad_kernel + wd.pad_kernel
    rhs = coker_df + wf.pad_cokernel + wd.pad_cokernel
    if lhs.entries != rhs.entries:
        raise IdentityViolation(f"product chain identity failed: {lhs} != {rhs}")
    margin = _min_margin(
        df.singular_data(tol, scale=scale).margin,
        f.singular_data(tol, scale=f.norm()).margin,
        d.singular_data(tol, scale=d.norm()).margin,
    )
    return ProductChainReport(
        kernel_product=ker_df,
        coker_class_product=coker_df,
        witness_first=wf,
        witness_second=wd,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# B-Fredholm structure (power-rank stabilization)


@dataclass(frozen=True, eq=False)
class BFredholmReport:
    """Stabilization data of the power-image chain of an endomorphism.

    ``stabilization_exponent`` (the descent n), ``rank_chain`` and
    ``stable_image`` = Im F^n are read off the image staircase of the
    map's power chain; the restriction of F to Im F^n is then invertible
    and its index (the b-index) vanishes.
    """

    stabilization_exponent: int
    rank_chain: tuple[int, ...]
    stable_image: Submodule
    restricted: RestrictedEndomorphism
    restricted_gamma: float
    kernel_meet_stable_image: Submodule
    b_index: K0Class
    margin: float


def b_fredholm_report(f: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL) -> BFredholmReport:
    if not f.is_endomorphism:
        raise StructureError("power stabilization needs an endomorphism")
    chain = f.power_chain(tol)
    n = chain.descent
    nf = f.norm()
    stable = chain.image(n)
    restricted = RestrictedEndomorphism.of(f, stable, tol)
    rest_data = restricted.singular_data(tol, scale=nf)
    rest_ker = restricted.kernel(tol, scale=nf)
    rest_img = restricted.image(tol, scale=nf)
    coker_rest = stable.k0() - rest_img.k0()
    b_index = rest_ker.k0() - coker_rest
    if not b_index.is_zero():
        raise IdentityViolation(
            f"restriction to the stable image is not invertible (b-index {b_index})"
        )
    meet, gap = chain.kernel(1).intersection(stable, tol)
    return BFredholmReport(
        stabilization_exponent=n,
        rank_chain=chain.rank_chain,
        stable_image=stable,
        restricted=restricted,
        restricted_gamma=rest_data.gamma,
        kernel_meet_stable_image=meet,
        b_index=b_index,
        margin=_min_margin(chain.margin, gap),
    )


@dataclass(frozen=True, eq=False)
class BFredholmCommutingReport:
    """Stabilization additivity data for a commuting pair."""

    report_f: BFredholmReport
    report_d: BFredholmReport
    report_product: BFredholmReport
    commutator_residual: float
    kernel_f_meet_stable: Submodule
    kernel_d_meet_stable: Submodule

    @property
    def b_index_additive(self) -> bool:
        lhs = self.report_product.b_index
        rhs = self.report_f.b_index + self.report_d.b_index
        return lhs.entries == rhs.entries


def b_fredholm_commuting_check(
    f: AdjointableMap, d: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> BFredholmCommutingReport:
    comm = commutator_residual(f, d, tol)
    rep_f = b_fredholm_report(f, tol)
    rep_d = b_fredholm_report(d, tol)
    rep_p = b_fredholm_report(d @ f, tol)
    stable = rep_p.stable_image
    meet_f, _ = f.kernel(tol, scale=f.norm()).intersection(stable, tol)
    meet_d, _ = d.kernel(tol, scale=d.norm()).intersection(stable, tol)
    for meet, parent in ((meet_f, rep_f), (meet_d, rep_d)):
        if not (meet.k0() <= stable.k0() and meet.k0().is_nonnegative()):
            raise IdentityViolation("intersection class exceeds its parents")
    return BFredholmCommutingReport(
        report_f=rep_f,
        report_d=rep_d,
        report_product=rep_p,
        commutator_residual=float(comm),
        kernel_f_meet_stable=meet_f,
        kernel_d_meet_stable=meet_d,
    )
