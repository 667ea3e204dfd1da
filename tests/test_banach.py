"""Chosen-complement operator calculus: generalized inverses, perturbation, products."""

import numpy as np
import pytest

from modop.banach import (
    BanachWitness,
    banach_perturbation,
    banach_product,
    defect_witness,
    generalized_weyl_banach,
    make_regular,
    make_regular_orthogonal,
    oblique_decomposition,
)
from modop.algebra import AlgebraShape
from modop.errors import StructureError, UnmetHypothesisError
from modop.tolerances import DEFAULT_TOL
from modop.randgen import (
    random_complement,
    random_map,
    random_matrix,
    random_regular_data,
    random_submodule,
    sheared_complement,
)


def regular_from(rng, rows, cols, rank_deficit=1, shear=0.3):
    t, kc, ic = random_regular_data(rows, cols, rng, rank_deficit=rank_deficit, shear=shear)
    return make_regular(t, kc, ic)


def test_invertible_operator_inverts():
    t = np.array([[2.0, 1.0], [0.0, 1.0]])
    reg = make_regular(t, np.eye(2), np.zeros((2, 0)))
    assert reg.rank == 2 and reg.dim_ker == 0 and reg.codim_im == 0
    assert np.allclose(reg.tprime, np.linalg.inv(t))
    assert max(reg.residuals.values()) < 1e-12


def test_orthogonal_choice_is_pseudoinverse(rng):
    t = random_matrix(4, 5, rng, rank_deficit=2)
    reg = make_regular_orthogonal(t)
    assert np.allclose(reg.tprime, np.linalg.pinv(t), atol=1e-10)
    assert reg.dim_ker == 3 and reg.codim_im == 2


def test_oblique_frozen_example():
    # T = diag(1, 0), kernel complement span{(1,1)}, range complement span{(1,1)}
    t = np.diag([1.0, 0.0])
    kc = np.array([[1.0], [1.0]])
    ic = np.array([[1.0], [1.0]])
    reg = make_regular(t, kc, ic)
    assert np.allclose(reg.tprime, [[1.0, -1.0], [1.0, -1.0]])
    # T T' projects onto Im T along the chosen complement, obliquely
    assert np.allclose(t @ reg.tprime, [[1.0, -1.0], [0.0, 0.0]])
    assert np.allclose(reg.tprime @ t, [[1.0, 0.0], [1.0, 0.0]])
    assert max(reg.residuals.values()) < 1e-12
    assert reg.im_decomposition.norm > 1.0  # genuinely oblique


def test_wrong_complements_rejected(rng):
    t = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(UnmetHypothesisError):
        make_regular(t, np.eye(3), np.zeros((3, 0)))  # claims trivial kernel
    with pytest.raises(UnmetHypothesisError):
        # right dimensions, but the claimed range complement is inside Im T
        make_regular(t, np.eye(3)[:, :2], np.eye(3)[:, :1])


def test_witness_pads():
    tall = make_regular_orthogonal(np.vstack([np.eye(2), np.zeros((1, 2))]))
    assert not generalized_weyl_banach(tall)
    wit = defect_witness(tall)
    assert (wit.z1, wit.z2) == (1, 0)
    square = make_regular_orthogonal(np.diag([1.0, 0.0]))
    assert generalized_weyl_banach(square)
    assert defect_witness(square) == BanachWitness(0, 0)


def test_oblique_decomposition_conditioning(rng):
    onto = np.array([[1.0], [0.0]])
    near_parallel = np.array([[1.0], [1e-7]])
    dec = oblique_decomposition(onto, near_parallel)
    assert dec.norm > 1e6
    assert dec.ill_posed
    assert dec.idempotency_residual < 1e-8


def test_ill_posed_follows_the_callers_tolerance():
    onto = np.array([[1.0], [0.0]])
    along = np.array([[1.0], [1e-2]])  # projector norm about 100
    assert not oblique_decomposition(onto, along).ill_posed
    strict = DEFAULT_TOL.with_(ill_posed_projector_norm=10.0)
    assert oblique_decomposition(onto, along, strict).ill_posed


def test_perturbation_frozen_rank_one():
    t = np.diag([1.0, 1.0, 0.0])
    f = np.zeros((3, 3))
    f[0, 2] = 0.3  # rank one, kernel span{e0, e1}
    rec = banach_perturbation(make_regular_orthogonal(t), f)
    assert rec.identity_holds
    assert rec.rank_f == 1
    assert rec.w_dim == 2  # T(ker F) = Im T
    assert rec.n_dim == rec.n_prime_dim == 0
    assert rec.m_dim == rec.m_prime_dim == 1
    assert rec.common_kernel_dim == 0
    assert rec.kernel_perturbed_dim == 1
    assert rec.codim_perturbed == 1
    assert (rec.lhs, rec.rhs) == (2, 2)
    assert not rec.ill_posed


def test_perturbation_generic_instances(rng):
    for _ in range(5):
        reg = regular_from(rng, 6, 7)
        f = 0.4 * random_matrix(6, 7, rng, rank_deficit=6)  # rank 1
        rec = banach_perturbation(reg, f)
        assert rec.identity_holds
        assert max(rec.perturbed.residuals.values()) < 1e-8
        # the perturbed operator's kernel really is killed by T + F
        tf = reg.t + f
        assert np.linalg.norm(tf @ rec.perturbed.kernel_basis) < 1e-8


def test_perturbation_zero_f(rng):
    reg = regular_from(rng, 5, 5)
    rec = banach_perturbation(reg, np.zeros((5, 5)))
    assert rec.identity_holds
    assert rec.rank_f == 0
    assert rec.w_dim == reg.rank
    assert rec.kernel_perturbed_dim == reg.dim_ker
    assert rec.m_dim == rec.m_prime_dim == 0  # ker T sits inside ker F entirely


def test_perturbation_shape_checked(rng):
    reg = regular_from(rng, 4, 4)
    with pytest.raises(StructureError):
        banach_perturbation(reg, np.zeros((3, 3)))


def test_product_of_regulars(rng):
    for _ in range(5):
        t_reg = regular_from(rng, 6, 5)
        s_reg = regular_from(rng, 4, 6)
        rec = banach_product(s_reg, t_reg)
        assert rec.alternating_sum == 0
        assert rec.witness_identity_holds
        assert max(rec.node_residuals, default=0.0) < 1e-8
        assert rec.injectivity_defect == 0.0 and rec.surjectivity_defect == 0.0
        assert max(rec.tu_residuals.values()) < 1e-8
        assert rec.verdict


def test_product_frozen_inclusion_projection():
    t_reg = make_regular_orthogonal(np.array([[1.0], [0.0]]))  # C -> C^2
    s_reg = make_regular_orthogonal(np.array([[1.0, 0.0]]))  # C^2 -> C
    rec = banach_product(s_reg, t_reg)
    assert rec.st.rank == 1
    assert not rec.gw_t and not rec.gw_s and rec.gw_st
    assert rec.verdict  # the implication is vacuous here
    assert rec.chain_dims == (0, 0, 1, 1, 0, 0)
    assert rec.meet_dim == 0


def test_product_composability_checked(rng):
    a = make_regular_orthogonal(random_matrix(3, 4, rng))
    with pytest.raises(StructureError):
        banach_product(a, a)


def test_sheared_complement_stays_complementary(rng):
    t = random_matrix(5, 5, rng, rank_deficit=2)
    reg = make_regular_orthogonal(t)
    kc = sheared_complement(reg.kernel_basis, 5, rng, shear=0.5)
    ic = sheared_complement(reg.image_basis, 5, rng, shear=0.5)
    sheared = make_regular(t, kc, ic)
    assert sheared.rank == reg.rank
    assert max(sheared.residuals.values()) < 1e-10
    assert sheared.im_decomposition.norm < 10  # modest shear, modest projector
    # the module generators draw exactly as their per-block matrix twins
    f = random_map(AlgebraShape((4,)), 2, 3, np.random.default_rng(5), rank_deficit=1)
    t = random_matrix(12, 8, np.random.default_rng(5), rank_deficit=1)
    assert np.array_equal(f.blocks[0], t)
    sub = random_submodule(AlgebraShape((3,)), 2, rng, ranks=(2,))
    comp = random_complement(sub, np.random.default_rng(6), shear=0.5)
    twin = sheared_complement(sub.column_bases[0], 6, np.random.default_rng(6), shear=0.5)
    assert np.array_equal(comp.column_bases[0], twin)
