"""Core-nilpotent splittings, their duals, and the commuting criteria."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_acceptance import kernel_chain_ascent

from modop.algebra import AlgebraShape
from modop.drazin import (
    ascent,
    browder_decomposition,
    commuting_browder_check,
    commuting_drazin_criterion,
    descent,
    drazin_dual_check,
    drazin_inverse,
    shift_counterexample,
)
from modop.errors import StructureError, UnmetHypothesisError
from modop.fredholm import b_fredholm_report
from modop.linmap import AdjointableMap
from modop.randgen import random_commuting_pair, random_endomorphism, random_map


def jordan(n):
    return np.diag(np.ones(n - 1), 1)


CORE_NILPOTENT = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])


def test_ascent_descent_of_jordan_block():
    j3 = AdjointableMap.from_matrix(jordan(3))
    assert ascent(j3) == 3
    assert descent(j3) == 3


def test_ascent_zero_for_invertible(shape23, rng):
    f = random_map(shape23, 2, 2, rng)
    assert ascent(f) == 0
    assert descent(f) == 0


def test_ascent_needs_endomorphism(shape23, rng):
    with pytest.raises(StructureError):
        ascent(random_map(shape23, 3, 2, rng))


def test_drazin_frozen_example():
    # diag(J_2, 2): inverse is diag(0, 0, 1/2), projector kills the Jordan part
    rep = drazin_inverse(AdjointableMap.from_matrix(CORE_NILPOTENT))
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


def test_drazin_axioms_on_planted_endo(shape23, rng):
    f = random_endomorphism(shape23, 3, rng, nilpotent=(2,))
    rep = drazin_inverse(f)
    assert rep.p == 2
    assert rep.p == ascent(f)
    assert max(rep.residuals.values()) < 1e-9
    # decomposition dims fill the module
    rng_s, nul_s = rep.decomposition
    assert rng_s.dim + nul_s.dim == rng_s.ambient_dim
    # the inverse itself is Drazin-invertible with index <= 1
    x = rep.drazin_inverse
    assert (x @ f @ x).allclose(x, atol=1e-9 * max(x.norm(), 1.0))


@pytest.mark.parametrize("m, seed", [(96, 0), (192, 7)])
def test_planted_index_of_large_non_normal_map(m, seed):
    # ||F^k|| << ||F||^k here: a rank cutoff scaled by ||F||^k read p as 13-15
    f, _ = random_commuting_pair(AlgebraShape((1,)), m, np.random.default_rng(seed), nilpotent=(3,))
    assert drazin_inverse(f).p == ascent(f) == kernel_chain_ascent(f) == 3


def test_criterion_on_large_non_normal_pair():
    f, d = random_commuting_pair(AlgebraShape((1,)), 96, np.random.default_rng(0), nilpotent=(3,))
    rep = commuting_drazin_criterion(f, d)
    assert rep.verdict and rep.direct_verdict
    assert rep.found is not None


def _scale_free_record(f):
    rep, stab = drazin_inverse(f), b_fredholm_report(f)
    return (
        rep.p,
        ascent(f),
        stab.rank_chain,
        rep.range_space.k0(),
        rep.null_space.k0(),
        stab.kernel_meet_stable_image.k0(),
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
    assert rep.p == rep.p_adjoint == 2
    assert rep.inverse_residual < 1e-9
    assert len(rep.orthogonality_residuals) == rep.p
    assert max(rep.orthogonality_residuals) < 1e-8


def test_criterion_invertible_pair(rng):
    shape = AlgebraShape((1,))
    f = random_map(shape, 4, 4, rng)
    d = f @ f
    rep = commuting_drazin_criterion(f, d)
    assert rep.verdict and rep.direct_verdict
    assert rep.found == (1, 1, 0, 0)  # stabilizes instantly: everything is zero
    assert rep.p == 0


def test_criterion_nilpotent_pair_frozen():
    f = AdjointableMap.from_matrix(jordan(3))
    rep = commuting_drazin_criterion(f, f)
    assert rep.p == 2  # (F D)^2 = J^4 = 0 but J^2 != 0
    assert rep.verdict and rep.direct_verdict
    assert rep.found == (1, 1, 3, 3)  # chains go quiet once powers hit zero
    assert rep.commutator_residual == 0.0
    assert rep.intersection_classes[0].entries == (1,)  # Im J^2 ∩ ker J^2 = line


def test_criterion_rejects_noncommuting(rng):
    shape = AlgebraShape((1,))
    f, d = random_map(shape, 4, 4, rng), random_map(shape, 4, 4, rng)
    with pytest.raises(UnmetHypothesisError):
        commuting_drazin_criterion(f, d)


def test_browder_frozen_example():
    wit = browder_decomposition(AdjointableMap.from_matrix(CORE_NILPOTENT))
    assert wit.range_space.dim == 1 and wit.null_space.dim == 2
    assert np.allclose(wit.f1_blocks[0], [[2.0]])
    assert np.allclose(np.sort(np.linalg.svd(wit.f4_blocks[0], compute_uv=False)), [0.0, 1.0])
    assert abs(wit.gamma_f1 - 2.0) < 1e-12
    assert wit.off_diagonal_residual < 1e-14
    assert wit.finitely_generated


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


def test_shift_example_range_strict():
    rep = shift_counterexample("range-strict", 5)
    dims = rep.chain_dims
    # strictly decreasing for n steps, then flat
    assert all(dims[k] > dims[k + 1] for k in range(5))
    assert dims[5] == dims[6]
    assert rep.strict_depth == 5 and rep.stabilization_depth == 5
    assert rep.fp_drazin_index <= 1  # the projected map stays tame throughout
    assert rep.commutation_residual < 1e-12


def test_shift_example_kernel_strict():
    rep = shift_counterexample("kernel-strict", 4)
    dims = rep.chain_dims
    assert all(dims[k] < dims[k + 1] for k in range(4))
    assert dims[4] == dims[5]
    assert rep.strict_depth == 4


def test_shift_example_depth_grows():
    # the stabilization depth is unbounded in the family size — the finite
    # shadow of a chain that never stabilizes
    depths = [shift_counterexample("range-strict", n).stabilization_depth for n in (2, 4, 6)]
    assert depths == [2, 4, 6]


def test_shift_example_validation():
    with pytest.raises(StructureError):
        shift_counterexample("sideways", 4)
    with pytest.raises(StructureError):
        shift_counterexample("range-strict", 1)
