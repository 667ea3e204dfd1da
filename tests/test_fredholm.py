"""Index bookkeeping: reports, six-node exactness, chains, power stabilization."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag
from element_oracle import AlgebraElement, from_entries
from flat_oracle import flat_basis, from_matrix, realization
from test_acceptance import assert_index_bookkeeping

from modop import fredholm
from modop.algebra import AlgebraShape
from modop.drazin import drazin_inverse
from modop.errors import (
    IdentityViolation,
    IllConditionedError,
    StructureError,
    UnmetHypothesisError,
)
from modop.fredholm import (
    b_fredholm_commuting_check,
    b_fredholm_report,
    exact_sequence,
    fredholm_report,
    product_chain,
    weyl_defect_witness,
    weyl_perturbation_chain,
)
from modop.linmap import AdjointableMap, PowerChain
from modop.modules import Submodule
from modop.randgen import (
    parse_shape,
    random_commuting_pair,
    random_endomorphism,
    random_low_rank,
    random_map,
    random_matrix,
)


def embed_first(shape):
    """A^1 -> A^2, x |-> (x, 0)."""
    one = AlgebraElement.identity(shape)
    zero = AlgebraElement.zero(shape)
    return from_entries([[one], [zero]])


def project_second(shape):
    """A^2 -> A^1, (x, y) |-> y."""
    one = AlgebraElement.identity(shape)
    zero = AlgebraElement.zero(shape)
    return from_entries([[zero, one]])


def test_report_of_identity(shape23):
    rep = fredholm_report(AdjointableMap.identity(shape23, 2))
    assert rep.kernel.k0().is_zero() and rep.coker_space.k0().is_zero()
    assert rep.index.is_zero()
    assert rep.is_weyl_zero_index and rep.is_generalized_weyl


def test_report_counts_planted_deficits(shape23, rng):
    f = random_map(shape23, 3, 2, rng, rank_deficit=1)
    rep = fredholm_report(f)
    assert rep.kernel.k0().entries == (3, 4)  # n_b + 1 per block
    assert rep.coker_space.k0().entries == (1, 1)
    assert rep.index.entries == (2, 3)  # free(3) - free(2)
    assert not rep.is_generalized_weyl
    assert rep.margin > 0.01


def test_defect_witness_balances(shape23, rng):
    f = random_map(shape23, 3, 2, rng, rank_deficit=1)
    w = weyl_defect_witness(f)
    rep = fredholm_report(f)
    lhs = rep.kernel.k0() + w.pad_kernel
    rhs = rep.coker_space.k0() + w.pad_cokernel
    assert lhs.entries == rhs.entries
    assert min(w.pad_kernel.entries + w.pad_cokernel.entries) >= 0
    # minimality: per block at least one pad entry vanishes
    for pk, pc in zip(w.pad_kernel.entries, w.pad_cokernel.entries):
        assert min(pk, pc) == 0


def test_generalized_weyl_for_selfadjoint(shape23, rng):
    g = random_map(shape23, 2, 2, rng, rank_deficit=1)
    f = g.adjoint() @ g  # self-adjoint: kernel class == cokernel class
    rep = fredholm_report(f)
    assert rep.is_generalized_weyl and rep.margin > 0
    assert not fredholm_report(random_map(shape23, 3, 2, rng)).is_generalized_weyl  # full-rank 3 -> 2 has kernel but no cokernel


def test_exact_sequence_zero_composite(shape23):
    # g f = 0 with f injective, g surjective: every space is forced
    f, g = embed_first(shape23), project_second(shape23)
    rep = exact_sequence(f, g)
    a = shape23.dim  # 4 + 9
    assert rep.dims == (0, a, a, a, a, 0)
    assert rep.worst_residual < 1e-12
    assert_index_bookkeeping(rep)
    assert rep.index_f.entries == tuple(-n for n in shape23.block_sizes)
    assert rep.index_g.entries == tuple(n for n in shape23.block_sizes)


def test_exact_sequence_generic(shape23, rng):
    f = random_map(shape23, 3, 2, rng, rank_deficit=1)
    g = random_map(shape23, 2, 2, rng, rank_deficit=1)
    rep = exact_sequence(f, g)
    assert rep.worst_residual < 1e-8
    assert_index_bookkeeping(rep)
    # sanity on the endpoint spaces
    assert rep.spaces[0].equals(f.kernel())
    assert rep.spaces[5].equals(g.image().complement())


@pytest.mark.parametrize(
    "shape_text, m1, m2, m3", [("2,3", 3, 2, 2), ("1^8", 2, 3, 2), ("4", 4, 4, 4), ("1,2", 2, 2, 3)]
)
def test_exact_sequence_dims_match_flat_ranks(shape_text, m1, m2, m3, rng):
    # plain-numpy oracle: nullities and co-ranks of the dense flat matrices
    shape = parse_shape(shape_text)
    f = random_map(shape, m1, m2, rng, rank_deficit=1)
    g = random_map(shape, m2, m3, rng, rank_deficit=1)
    rep = exact_sequence(f, g)
    a, b, ab = realization(f), realization(g), realization(g @ f)
    ra, rb, rab = (np.linalg.matrix_rank(x) for x in (a, b, ab))
    expect = (
        a.shape[1] - ra,
        a.shape[1] - rab,
        b.shape[1] - rb,
        a.shape[0] - ra,
        b.shape[0] - rab,
        b.shape[0] - rb,
    )
    assert rep.dims == expect
    assert rep.worst_residual < 1e-8


def test_exact_sequence_runs_at_block_size(rng, svd_calls):
    # shape (16,), m = 4: blocks are 64 x 64, the flat matrices 1024 x 1024
    shape = parse_shape("16")
    f = random_map(shape, 4, 4, rng, rank_deficit=1)
    g = random_map(shape, 4, 4, rng, rank_deficit=1)
    svd_calls.clear()
    rep = exact_sequence(f, g)
    assert rep.worst_residual < 1e-8
    assert_index_bookkeeping(rep)
    assert svd_calls and max(max(c.a.shape[-2:]) for c in svd_calls) <= 4 * 16


def _unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


def _flat_projectors(a):
    """Orthogonal projectors onto ker A and (Im A)perp of a dense matrix,
    from numpy's SVD and rank."""
    u, _, vh = np.linalg.svd(a)
    r = np.linalg.matrix_rank(a)
    ker, coker = vh[r:].conj().T, u[:, r:]
    return ker @ ker.conj().T, coker @ coker.conj().T


def test_exact_sequence_on_blocks_of_one_size_and_different_structure(rng):
    # 1^6, every block 3 x 3, but f's blocks differ in rank and nilpotent
    # structure and g's in rank: the six spaces hold equal-size blocks of
    # different widths, so the arrows regroup the blocks
    shape = parse_shape("1^6")
    jordan = np.eye(2, k=1)
    cores = [
        np.diag([1.5, 0.7, 1.2]),  # invertible
        np.eye(3, k=1),  # one Jordan block: rank 2, index 3
        np.zeros((3, 3)),
        block_diag(jordan, 0.8),  # rank 2, index 2
        np.diag([0.0, 0.0, 1.3]),  # rank 1, semisimple kernel
        block_diag(jordan, 0.0),  # rank 1, index 2
    ]
    unitaries = [_unitary(rng, 3) for _ in cores]
    f = AdjointableMap(shape, 3, 3, tuple(u @ c @ u.conj().T for u, c in zip(unitaries, cores)))
    g = AdjointableMap(
        shape, 3, 3, tuple(random_matrix(3, 3, rng, rank_deficit=d) for d in (1, 0, 2, 3, 1, 0))
    )
    rep = exact_sequence(f, g)
    assert len({w.shape[1] for w in rep.spaces[1].column_bases}) > 1
    a, b, ab = realization(f), realization(g), realization(g @ f)
    (ker_a, perp_a), (ker_b, perp_b), (ker_ab, perp_ab) = map(_flat_projectors, (a, b, ab))
    oracle = (ker_a, ker_ab, ker_b, perp_a, perp_ab, perp_b)
    assert rep.dims == tuple(round(np.trace(p).real) for p in oracle)
    for space, p in zip(rep.spaces, oracle):
        q = flat_basis(space)
        assert np.linalg.norm(q @ q.conj().T - p, 2) < 1e-8
    assert max(rep.node_residuals + rep.map_containment_residuals) < 1e-8
    assert rep.injectivity_defect == rep.surjectivity_defect == 0.0
    assert_index_bookkeeping(rep)


def test_exact_sequence_requires_composability(shape23, rng):
    f = random_map(shape23, 3, 2, rng)
    with pytest.raises(StructureError):
        exact_sequence(f, f)


def test_perturbation_chain_balances(shape23, rng):
    t = random_map(shape23, 3, 2, rng, rank_deficit=1)
    f = random_low_rank(shape23, 3, 2, rng, rank=1, scale=0.5)
    rep = weyl_perturbation_chain(t, f)
    assert rep.lhs.entries == rep.rhs.entries
    assert min(rep.perturbation_class.entries) >= 0
    assert rep.margin > 0
    assert max(rep.residuals.values()) < 1e-8
    # the splitting image really sits inside both images
    assert (t + f).image().contains(rep.splitting_image)[0]
    assert t.image().contains(rep.splitting_image)[0]


def test_perturbation_chain_zero_perturbation(shape23, rng):
    t = random_map(shape23, 2, 2, rng, rank_deficit=1)
    f = 1e-0 * random_low_rank(shape23, 2, 2, rng, rank=1, scale=0.0)
    rep = weyl_perturbation_chain(t, 0.0 * f)
    assert rep.lhs.entries == rep.rhs.entries
    assert rep.perturbation_class.is_zero()
    assert rep.kernel_perturbed.equals(t.kernel())


def test_product_chain_balances(shape23, rng):
    f = random_map(shape23, 3, 2, rng, rank_deficit=1)
    d = random_map(shape23, 2, 2, rng, rank_deficit=1)
    rep = product_chain(d, f)
    assert rep.lhs.entries == rep.rhs.entries
    assert rep.margin > 0
    assert rep.kernel_product.equals((d @ f).kernel())


def test_power_stabilization_frozen_example():
    # diag(J_2, 2) on C^3: ranks 3, 2, 1, then constant
    mat = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    rep = b_fredholm_report(from_matrix(mat))
    assert rep.stabilization_exponent == 2
    assert rep.rank_chain == (3, 2, 1)
    assert rep.stable_image.dim == 1
    assert abs(rep.restricted_gamma - 2.0) < 1e-12  # F acts as *2 on the stable line


def test_power_stabilization_nilpotent():
    j3 = np.diag(np.ones(2), 1)
    rep = b_fredholm_report(from_matrix(j3))
    assert rep.stabilization_exponent == 3
    assert rep.rank_chain == (3, 2, 1, 0)
    assert rep.stable_image.dim == 0
    assert rep.restricted_gamma == math.inf  # empty restriction is vacuously invertible


def test_power_stabilization_invertible(shape23, rng):
    f = random_map(shape23, 2, 2, rng)
    rep = b_fredholm_report(f)
    assert rep.stabilization_exponent == 0
    assert rep.stable_image.dim == f.kernel().ambient_dim


PLANTED = [
    from_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])),
    random_endomorphism(parse_shape("2,3"), 2, np.random.default_rng(3), nilpotent=(2, 1)),
]


@pytest.mark.parametrize("f", PLANTED, ids=["diag(J2,2)", "(2,3)/2"])
def test_power_stabilization_rejects_a_descent_one_step_short(f, monkeypatch):
    # Im F^(n-1) is invariant, but F is not injective on it: it meets
    # ker F^(n-1), and the split gate must see the dependent bases.
    index = PowerChain.index.fget
    assert index(f.power_chain()) == 2
    monkeypatch.setattr(PowerChain, "index", property(lambda chain: index(chain) - 1))
    for certify in (b_fredholm_report, drazin_inverse):
        with pytest.raises(
            IllConditionedError,
            match=r"^block \d+: splitting bases are numerically dependent \(cond S = ",
        ):
            certify(f)


def test_commuting_stabilization_additivity(rng):
    shape = AlgebraShape((1,))
    f, d = random_commuting_pair(shape, 7, rng, nilpotent=(2,))
    rep = b_fredholm_commuting_check(f, d)
    assert rep.commutator_residual < 1e-12
    for sub in (rep.report_f, rep.report_d, rep.report_product):
        assert sub.restricted_gamma > 0


def _stable_image_planted_full(real):
    # Im(DF)^n planted as the whole module: a singular factor's kernel meets it
    def planted(f, tol):
        rep = real(f, tol)
        return replace(rep, stable_image=Submodule.full(f.shape, f.m))

    return planted


@pytest.mark.parametrize("singular", ["F", "D"])
def test_commuting_check_rejects_a_kernel_meeting_the_stable_image(singular, rng, monkeypatch):
    shape = AlgebraShape((1,))
    g = random_endomorphism(shape, 5, rng, nilpotent=(2,))
    one = AdjointableMap.identity(shape, 5)
    f, d = (g, one) if singular == "F" else (one, g)
    b_fredholm_commuting_check(f, d)
    monkeypatch.setattr(fredholm, "b_fredholm_report", _stable_image_planted_full(b_fredholm_report))
    with pytest.raises(IdentityViolation) as exc:
        b_fredholm_commuting_check(f, d)
    assert str(exc.value) == f"ker {singular} meets the stable image Im(DF)^n in dimension 1"


def test_commuting_check_rejects_noncommuting(rng):
    shape = AlgebraShape((1,))
    f = random_map(shape, 5, 5, rng)
    d = random_map(shape, 5, 5, rng)
    with pytest.raises(UnmetHypothesisError):
        b_fredholm_commuting_check(f, d)
