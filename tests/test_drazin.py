"""Core-nilpotent splittings, their duals, and the commuting criteria."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import null_space, orth
from test_acceptance import kernel_chain_ascent

from modop import drazin
from modop.algebra import AlgebraShape
from modop.drazin import (
    commuting_browder_check,
    commuting_drazin_criterion,
    drazin_dual_check,
    drazin_inverse,
)
from modop.errors import (
    IdentityViolation,
    IllConditionedError,
    StructureError,
    UnmetHypothesisError,
)
from modop.fredholm import b_fredholm_commuting_check, b_fredholm_report
from modop.linmap import AdjointableMap, PowerChain, commutator_residual
from modop.modules import Submodule
from modop.randgen import (
    parse_shape,
    random_commuting_pair,
    random_endomorphism,
    random_map,
    random_submodule,
)

from flat_oracle import flat_basis, from_matrix, realization


def jordan(n):
    return np.diag(np.ones(n - 1), 1)


CORE_NILPOTENT = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])


def test_ascent_descent_of_jordan_block():
    chain = from_matrix(jordan(3)).power_chain()
    assert chain.index == 3
    assert chain.rank_chain == (3, 2, 1, 0)
    assert [chain.image(k).dim for k in range(5)] == [3, 2, 1, 0, 0]


def test_ascent_zero_for_invertible(shape23, rng):
    chain = random_map(shape23, 2, 2, rng).power_chain()
    assert chain.index == 0
    assert chain.image(1).dim == chain.image(0).ambient_dim


def test_ascent_needs_endomorphism(shape23, rng):
    with pytest.raises(StructureError):
        random_map(shape23, 3, 2, rng).power_chain()


def test_drazin_frozen_example():
    # diag(J_2, 2): inverse is diag(0, 0, 1/2), projector kills the Jordan part
    rep = drazin_inverse(from_matrix(CORE_NILPOTENT))
    assert rep.p == 2
    x = rep.drazin_inverse.blocks[0]
    assert np.allclose(x, np.diag([0.0, 0.0, 0.5]))
    assert np.allclose(rep.spectral_projector.blocks[0], np.diag([0.0, 0.0, 1.0]))
    assert np.allclose(rep.core_part.blocks[0], np.diag([0.0, 0.0, 2.0]))
    nilp = np.zeros((3, 3))
    nilp[0, 1] = 1.0
    assert np.allclose(rep.nilpotent_part.blocks[0], nilp)
    assert abs(rep.core_gamma - 2.0) < 1e-12
    assert rep.range_space.dim == 1 and rep.null_space.dim == 2
    assert max(rep.residuals.values()) < 1e-12


def test_drazin_and_power_stabilization_read_one_core_block(shape23, rng):
    f = random_endomorphism(shape23, 3, rng, nilpotent=(2,))
    rep, stab = drazin_inverse(f), b_fredholm_report(f)
    assert stab.restricted_gamma == rep.core_gamma > 0
    assert stab.stable_image is rep.range_space
    assert rep.residuals["off_diagonal"] == f.power_chain().core.off_diagonal_residual


# The split of a chain, and the map's blocks on it, carry four gates, which
# both the Drazin inverse and power stabilization reach (dependent summands:
# tests/test_fredholm.py::test_power_stabilization_rejects_a_descent_one_step_short).
SPLIT_READERS = pytest.mark.parametrize(
    "certify", [drazin_inverse, b_fredholm_report], ids=["drazin_inverse", "b_fredholm_report"]
)


def _planted(monkeypatch, name, plant):
    """Replace ``PowerChain.<name>(k)`` at the index by ``plant(chain)``."""
    real = getattr(PowerChain, name)

    def planted(chain, k):
        return plant(chain) if k == chain.index else real(chain, k)

    monkeypatch.setattr(PowerChain, name, planted)


def _span(*columns):
    basis = np.linalg.qr(np.array(columns, dtype=complex).T)[0]
    return Submodule(AlgebraShape((1,)), 3, (basis,))


@SPLIT_READERS
def test_split_rejects_summands_that_do_not_fill_the_space(certify, monkeypatch):
    # a kernel staircase that shrinks at the index leaves Im F^p short of the
    # rank it forces: the image step rejects it before any S is formed
    _planted(monkeypatch, "kernel", lambda chain: Submodule.zero(chain.f.shape, chain.f.m))
    with pytest.raises(IllConditionedError) as exc:
        certify(from_matrix(CORE_NILPOTENT))
    assert str(exc.value).startswith(
        "block 0: rank 1 of Im F^2 contradicts the kernel staircase's 3 (step margin "
    )


@pytest.mark.parametrize(
    "name, plant",
    [
        ("image", lambda chain: _span([0, 1, 1])),  # F moves it out of itself
        ("kernel", lambda chain: _span([1, 0, 0], [0, 1, 1])),  # F moves it into Im F^p
    ],
    ids=["non-invariant-image", "non-invariant-kernel"],
)
@SPLIT_READERS
def test_split_rejects_a_map_that_is_not_block_diagonal(certify, name, plant, monkeypatch):
    _planted(monkeypatch, name, plant)
    with pytest.raises(IdentityViolation, match=r"^map is not block-diagonal on the splitting"):
        certify(from_matrix(CORE_NILPOTENT))


@SPLIT_READERS
def test_split_rejects_a_core_rank_deficit(certify, monkeypatch):
    # diag(0, 2) read at index 0: S = I, and the core is all of F
    index = PowerChain.index.fget
    monkeypatch.setattr(PowerChain, "index", property(lambda chain: index(chain) - 1))
    with pytest.raises(IdentityViolation) as exc:
        certify(from_matrix(np.diag([0.0, 2.0])))
    assert str(exc.value) == "map is not invertible on the stable range (rank 1 of 2)"


def test_drazin_inverse_rejects_a_planted_axiom_defect(monkeypatch):
    # X and the projector off by 1e-6 relative, on a split with cond S = 1
    real = drazin._on_split
    monkeypatch.setattr(drazin, "_on_split", lambda chain, cores: (1 + 1e-6) * real(chain, cores))
    with pytest.raises(IdentityViolation, match=r"^Drazin axiom residual \w+ = .* x cond S"):
        drazin_inverse(from_matrix(CORE_NILPOTENT))


def graded_nilpotent_family(low, count=200, seed=1):
    """Exactly nilpotent maps of A^2 over (2,3), graded: per block
    F_b = U A U*, U the Q of a complex Gaussian and A strictly upper
    triangular with entries N(0,1) 10^u, u ~ U(low, 0)."""
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        blocks = []
        for d in (4, 6):
            u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            a = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(low, 0, size=(d, d))
            blocks.append(u @ np.triu(a, 1) @ u.conj().T)
        maps.append(AdjointableMap(AlgebraShape((2, 3)), 2, 2, tuple(blocks)))
    return maps


@pytest.mark.parametrize("low, clean_floor", [(-6, 62), (-12, 85)])
def test_graded_nilpotent_maps_are_certified_or_ill_conditioned(low, clean_floor):
    # Graded inputs are where the image and kernel staircases disagree.  Each
    # map is certified, meeting the Drazin axioms, or ill-conditioned; never
    # a library bug.
    clean = 0
    for f in graded_nilpotent_family(low):
        try:
            rep, stab = drazin_inverse(f), b_fredholm_report(f)
        except IllConditionedError:
            continue
        clean += 1
        assert stab.stabilization_exponent == rep.p and stab.stable_image is rep.range_space
        assert max(rep.residuals.values()) < 1e-9
    assert clean >= clean_floor


@pytest.mark.parametrize("low, clean_floor", [(-6, 27), (-12, 50)])
def test_graded_nilpotent_maps_transport_to_the_adjoint_or_are_ill_conditioned(low, clean_floor):
    # ker (F*)^k drifts off (Im F^k)^perp by up to angle_tol / (chain margin):
    # ill-conditioning, raised as such, never a library bug
    clean = 0
    for f in graded_nilpotent_family(low):
        try:
            rep = drazin_dual_check(f)
        except IllConditionedError:
            continue
        clean += 1
        assert max(rep.orthogonality_residuals, default=0.0) <= 1e-8
    assert clean >= clean_floor


def test_drazin_axioms_on_planted_endo(shape23, rng):
    f = random_endomorphism(shape23, 3, rng, nilpotent=(2,))
    rep = drazin_inverse(f)
    assert rep.p == 2
    assert rep.p == f.power_chain().index
    assert max(rep.residuals.values()) < 1e-9
    # decomposition dims fill the module
    assert rep.range_space.dim + rep.null_space.dim == rep.range_space.ambient_dim
    # the inverse itself is Drazin-invertible with index <= 1
    x = rep.drazin_inverse
    assert (x @ f @ x).allclose(x, atol=1e-9 * max(x.norm(), 1.0))


@pytest.mark.parametrize("m, seed", [(96, 0), (192, 7)])
def test_planted_index_of_large_non_normal_map(m, seed):
    # ||F^k|| << ||F||^k here: a rank cutoff scaled by ||F||^k read p as 13-15
    f, _ = random_commuting_pair(AlgebraShape((1,)), m, np.random.default_rng(seed), nilpotent=(3,))
    assert drazin_inverse(f).p == f.power_chain().index == kernel_chain_ascent(f) == 3


def test_criterion_on_large_non_normal_pair():
    f, d = random_commuting_pair(AlgebraShape((1,)), 96, np.random.default_rng(0), nilpotent=(3,))
    rep = commuting_drazin_criterion(f, d)
    assert rep.k == max(rep.p, f.power_chain().index) == 3


def _scale_free_record(f):
    rep, stab = drazin_inverse(f), b_fredholm_report(f)
    return (
        rep.p,
        f.power_chain().index,
        stab.rank_chain,
        rep.range_space.k0(),
        rep.null_space.k0(),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    nilpotent=st.lists(st.integers(1, 2), max_size=2),
)
def test_reports_do_not_depend_on_the_operator_scale(seed, nilpotent):
    f = random_endomorphism(AlgebraShape((2, 3)), 2, np.random.default_rng(seed), nilpotent=nilpotent)
    expected = _scale_free_record(f)
    assert expected[0] == max(nilpotent, default=0)
    for c in (1e-150, 1e150):
        assert _scale_free_record(c * f) == expected


def test_drazin_inverse_of_invertible_is_inverse(shape23, rng):
    f = random_endomorphism(shape23, 2, rng)
    rep = drazin_inverse(f)
    assert rep.p == 0
    assert rep.nilpotent_part.norm() < 1e-12 * f.norm()
    prod = f @ rep.drazin_inverse
    assert prod.allclose(AdjointableMap.identity(shape23, 2), atol=1e-9)


def test_dual_check(shape23, rng):
    f = random_endomorphism(shape23, 2, rng, nilpotent=(2,))
    rep = drazin_dual_check(f)
    assert rep.p == 2
    assert rep.inverse_residual < 1e-9
    assert len(rep.orthogonality_residuals) == rep.p
    assert max(rep.orthogonality_residuals) < 1e-8


def _dense_orthocomplement_defect(qi, qk):
    """Two-sided projection defect between span(qk) and span(qi)^perp, on
    dense flat bases; inf when their dimensions differ."""
    qc = null_space(qi.conj().T)
    if qc.shape[1] != qk.shape[1]:
        return math.inf
    return max(
        np.linalg.norm(x - q @ (q.conj().T @ x), 2) if x.shape[1] else 0.0
        for q, x in ((qc, qk), (qk, qc))
    )


@pytest.mark.parametrize("text", ["2,3", "1^6,2^3,3"])
def test_dual_defect_is_the_dense_projection_defect(text, rng):
    shape = parse_shape(text)
    f = random_endomorphism(shape, 3, rng, nilpotent=(2, 1))
    rep = drazin_dual_check(f)
    a = realization(f)
    assert rep.p == 2
    for k, got in enumerate(rep.orthogonality_residuals, start=1):
        qi = orth(np.linalg.matrix_power(a, k))
        qk = null_space(np.linalg.matrix_power(a.conj().T, k))
        assert abs(got - _dense_orthocomplement_defect(qi, qk)) <= 1e-14
    # against random kernels: widths that fill every block, and widths that do not
    image = f.power_chain().image(1)
    fill = [3 * n - w.shape[1] for n, w in zip(shape.block_sizes, image.column_bases)]
    short = [fill[0] - 1 if fill[0] else 1, *fill[1:]]
    for widths in (fill, short):
        kernel = random_submodule(shape, 3, rng, ranks=widths)
        got = drazin._orthocomplement_defect(image, kernel)
        want = _dense_orthocomplement_defect(flat_basis(image), flat_basis(kernel))
        if widths is short:
            assert got == want == math.inf
        else:
            assert 0.1 < want and abs(got - want) <= 1e-14


def test_criterion_invertible_pair(rng):
    shape = AlgebraShape((1,))
    f = random_map(shape, 4, 4, rng)
    d = f @ f
    rep = commuting_drazin_criterion(f, d)
    assert rep.p == rep.k == 0  # stabilizes instantly: everything is zero
    assert rep.intersection_classes == rep.adjoint_classes
    assert [c.entries for c in rep.intersection_classes] == [(0,)]


def test_criterion_nilpotent_pair_frozen():
    f = from_matrix(jordan(3))
    rep = commuting_drazin_criterion(f, f)
    assert rep.p == 2  # (F D)^2 = J^4 = 0 but J^2 != 0
    assert rep.k == 3 == max(rep.p, f.power_chain().index)  # quiet once powers hit zero
    assert rep.commutator_residual == 0.0
    # Im J^2 ∩ ker J^2 = line, then Im J^3 = 0
    assert [c.entries for c in rep.intersection_classes] == [(1,), (0,)]
    assert [c.entries for c in rep.adjoint_classes] == [(1,), (0,)]


def kronecker_pair(rng, a_planted, b_planted):
    """F = S(A ⊗ I)S^-1 and D = S(I ⊗ B)S^-1 for A, B with planted (Jordan
    sizes, invertible dimension): they commute, but unlike the pairs of
    ``random_commuting_pair`` they are not polynomials of one map."""
    a, b = (
        random_endomorphism(AlgebraShape((1,)), sum(sizes) + inv, rng, nilpotent=sizes).blocks[0]
        for sizes, inv in (a_planted, b_planted)
    )
    m = a.shape[0] * b.shape[0]
    s = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) + 2.0 * np.eye(m)
    s_inv = np.linalg.inv(s)
    f = s @ np.kron(a, np.eye(b.shape[0])) @ s_inv
    d = s @ np.kron(np.eye(a.shape[0]), b) @ s_inv
    return from_matrix(f), from_matrix(d)


def _kronecker_index(a_planted, b_planted):
    """ind(A ⊗ B) from the planted blocks: J_i ⊗ J_j has index min(i, j),
    J_i ⊗ C has index i, and C ⊗ C' is invertible."""
    (a_sizes, a_inv), (b_sizes, b_inv) = a_planted, b_planted
    a_parts = list(a_sizes) + [math.inf] * bool(a_inv)
    b_parts = list(b_sizes) + [math.inf] * bool(b_inv)
    return max((min(i, j) for i in a_parts for j in b_parts if min(i, j) < math.inf), default=0)


KRONECKER_PLANTS = [
    (((3,), 0), ((2,), 0)),  # both nilpotent: p = 2 < ind F = 3
    (((3,), 1), ((2,), 0)),
    (((2,), 1), ((2,), 1)),
    (((3, 1), 0), ((2,), 1)),
    (((2,), 2), ((3,), 0)),  # p = 3 > ind F = 2
    (((), 2), ((2,), 1)),  # F invertible
]


@pytest.mark.parametrize("a_planted, b_planted", KRONECKER_PLANTS)
def test_criterion_and_kernel_meets_on_kronecker_pairs(a_planted, b_planted):
    rng = np.random.default_rng(0)
    ind_f = max(a_planted[0], default=0)
    p = _kronecker_index(a_planted, b_planted)
    for _ in range(5):
        f, d = kronecker_pair(rng, a_planted, b_planted)
        rep = commuting_drazin_criterion(f, d)
        assert rep.p == p and f.power_chain().index == ind_f
        assert rep.k == max(p, ind_f)
        stab = b_fredholm_commuting_check(f, d)
        assert stab.kernel_f_meet_stable.dim == stab.kernel_d_meet_stable.dim == 0


def test_criterion_rejects_noncommuting(rng):
    shape = AlgebraShape((1,))
    f, d = random_map(shape, 4, 4, rng), random_map(shape, 4, 4, rng)
    with pytest.raises(UnmetHypothesisError):
        commuting_drazin_criterion(f, d)


def test_browder_frozen_example():
    f = from_matrix(CORE_NILPOTENT)
    rep = commuting_browder_check(f, AdjointableMap.identity(f.shape, f.m))
    wit = rep.witness_f
    assert rep.range_space.dim == 1 and rep.null_space.dim == 2
    assert np.allclose(wit.f1_blocks.mats[0], [[2.0]])
    assert abs(wit.gamma_f1 - 2.0) < 1e-12
    assert wit.off_diagonal_residual < 1e-14


def test_commuting_browder_shares_splitting(rng):
    shape = AlgebraShape((1,))
    f, d = random_commuting_pair(shape, 7, rng, nilpotent=(2,))
    rep = commuting_browder_check(f, d)
    assert rep.p >= 1
    assert rep.range_space.dim + rep.null_space.dim == 7
    assert rep.witness_f.gamma_f1 > 0 and rep.witness_d.gamma_f1 > 0
    assert rep.witness_f.off_diagonal_residual < 1e-8
    assert rep.kernel_identity_defect < 1e-7
    assert rep.commutator_residual < 1e-10


def shift_example(n, kind="range-strict"):
    """Finite shadow of the one-sided shift on A^2 over M_n: I + shift/2 (an
    isomorphism) next to the truncated shift, or the adjoint of that for
    "kernel-strict"; and the projection onto the isomorphism block, which
    commutes with it."""
    shift = jordan(n).astype(complex)
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    c[:n, :n] = np.eye(n) + 0.5 * shift
    c[n:, n:] = shift
    f = AdjointableMap(AlgebraShape((n,)), 2, 2, (c,))
    proj = AdjointableMap(AlgebraShape((n,)), 2, 2, (np.diag([1.0] * n + [0.0] * n),))
    return (f if kind == "range-strict" else f.adjoint()), proj


def test_shift_example_range_strict():
    f, _ = shift_example(5)
    chain = f.power_chain()
    dims = [chain.image(k).dim for k in range(7)]
    # strictly decreasing for n steps, then flat
    assert chain.index == 5
    assert all(dims[k] > dims[k + 1] for k in range(5))
    assert dims[5] == dims[6]


def test_shift_example_kernel_strict():
    f, _ = shift_example(4, "kernel-strict")
    chain = f.power_chain()
    dims = [chain.kernel(k).dim for k in range(6)]
    assert chain.index == 4
    assert all(dims[k] < dims[k + 1] for k in range(4))
    assert dims[4] == dims[5]


def test_shift_example_depth_grows():
    # the stabilization depth is unbounded in the family size — the finite
    # shadow of a chain that never stabilizes
    assert [shift_example(n)[0].power_chain().index for n in (2, 4, 6)] == [2, 4, 6]


def test_shift_example_projection_stays_tame():
    # the commuting projection P keeps FP Drazin invertible with index 1 at
    # every depth
    for n, kind in itertools.product((2, 5), ("range-strict", "kernel-strict")):
        f, proj = shift_example(n, kind)
        assert commutator_residual(f, proj) < 1e-12
        assert drazin_inverse(f @ proj).p == 1
