"""Chosen-complement operator calculus: generalized inverses, perturbation, products."""

import numpy as np
import pytest

from modop import banach, fredholm
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
from modop.cli import RunConfig, run_suite
from modop.errors import IdentityViolation, StructureError, UnmetHypothesisError
from modop.linmap import AdjointableMap
from modop.subspace import _residual_values, complement, op_norm
from modop.tolerances import ILL_POSED_PROJECTOR_NORM
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
    # the widths add up, but onto's two columns span one line
    with pytest.raises(UnmetHypothesisError, match=r"^onto has dependent columns \(rank 1 of 2\)"):
        oblique_decomposition([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]], np.eye(3)[:, 1:2])


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


def test_idempotent_norm_is_one_over_the_smallest_sine(rng):
    theta = 0.3
    onto = np.array([[1.0], [0.0]])
    along = np.array([[np.cos(theta)], [np.sin(theta)]])
    assert abs(1.0 / oblique_decomposition(onto, along).norm - np.sin(theta)) < 1e-14
    # an empty half leaves E = 0 or E = I, and nothing to cross-check
    full = random_matrix(4, 4, rng)
    assert oblique_decomposition(full[:, :0], full).norm == 0.0
    assert abs(oblique_decomposition(full, full[:, :0]).norm - 1.0) < 1e-12


def test_idempotent_norm_gate_reads_the_orthonormal_bases():
    # onto's columns are 1e-9 apart, but E is built from the orthonormal
    # bases of the two spans, which meet at a large angle: ||E|| matches
    # 1/sin theta_min to roundoff, and the basis matrix is conditioned by
    # the angle alone, cot(theta_min / 2)
    q, _ = np.linalg.qr(np.random.default_rng(39).standard_normal((4, 4)))
    u, v, w, z = q.T
    onto = np.stack([u, u + 1e-9 * v], axis=1)
    along = np.stack([w + 0.1 * u, z], axis=1)
    dec = oblique_decomposition(onto, along)
    sin_min = _residual_values(dec.kernel_basis, dec.image_basis)[-1]
    assert sin_min > 0.9
    assert abs(1.0 / dec.norm - sin_min) <= 1e-14
    assert abs(dec.cond - 1.0 / np.tan(0.5 * np.arcsin(sin_min))) <= 1e-12


def test_idempotent_norm_gate_trips_on_a_planted_norm(rng, monkeypatch):
    onto, along = random_matrix(5, 2, rng), random_matrix(5, 3, rng)
    true_norm = banach.op_norm
    monkeypatch.setattr(banach, "op_norm", lambda a: true_norm(a) * (1.0 + 1e-6))
    with pytest.raises(IdentityViolation, match=r"idempotent norm .* is not 1/sin theta_min"):
        oblique_decomposition(onto, along)


def test_make_regular_computes_each_projector_norm_once(svd_calls):
    t, kc, ic = random_regular_data(6, 6, np.random.default_rng(8), rank_deficit=1)
    reg = make_regular(t, kc, ic)
    f = 0.4 * random_matrix(6, 6, np.random.default_rng(9), rank_deficit=5)  # rank 1
    # One SVD of T gives ker T, Im T and ||T||; make_regular orthonormalizes
    # each given complement once; per decomposition the basis matrix, ||E||,
    # the idempotency residual and the sine of the identity check; five
    # residual norms.  The orthogonal choice reads both complements off the
    # SVD of T.  The perturbation reads ||T|| off T's regular operator and
    # takes one SVD of F (ker F and ||F||), T(ker F), one SVD of T+F (its
    # complements included), the common kernel, four projected spaces, the
    # split check and the perturbed operator, whose invertible T+F leaves
    # no sine to take.  A second decomposition of T, F or T+F, a norm taken
    # beside its SVD, an orthonormal basis orthonormalized again, or a
    # recomputed ||E||, shows here.
    for build, expected in (
        (lambda: make_regular(t, kc, ic), 16),
        (lambda: make_regular_orthogonal(t), 14),
        (lambda: banach_perturbation(reg, f).perturbed, 20),
    ):
        svd_calls.clear()
        out = build()
        assert len(svd_calls) == expected
        # the stored norms give the bits the recomputed ones gave
        for dec in (out.ker_decomposition, out.im_decomposition):
            e = dec.idempotent
            assert dec.norm == op_norm(e)
            assert dec.idempotency_residual == op_norm(e @ e - e) / max(op_norm(e), 1e-300)
        e_y, e_x = out.im_decomposition.idempotent, out.ker_decomposition.idempotent
        r3 = op_norm(out.t @ out.tprime - e_y) / max(op_norm(e_y), 1.0)
        r4 = op_norm(out.tprime @ out.t - e_x) / max(op_norm(e_x), 1.0)
        assert out.residuals["tt_is_im_projection"] == r3
        assert out.residuals["t_t_is_ker_projection"] == r4


@pytest.mark.parametrize("suite, budget", [("banach-perturbation", 206), ("banach-product", 331)])
def test_banach_suites_keep_their_svd_budget(svd_calls, suite, budget):
    # the first five instances at seed 5 on 2,3: every space orthonormalized
    # once, each T decomposed by one SVD and its norm read off it; a re-added
    # decomposition or norm shows here
    payload = run_suite(suite, RunConfig(seed=5, n=5, shape="2,3"))
    assert payload["passes"] == 5
    assert len(svd_calls) <= budget


def test_ill_posed_above_the_projector_norm_bound():
    assert ILL_POSED_PROJECTOR_NORM == 1e6
    # onto e0 along (1, tilt): the projector norm is sqrt(1 + tilt^-2)
    onto = np.array([[1.0], [0.0]])
    for tilt, ill_posed in ((1e-5, False), (1e-7, True)):
        dec = oblique_decomposition(onto, np.array([[1.0], [tilt]]))
        assert dec.norm == pytest.approx(1.0 / tilt, rel=1e-6)
        assert dec.ill_posed is ill_posed


def test_perturbation_frozen_rank_one():
    t = np.diag([1.0, 1.0, 0.0])
    f = np.zeros((3, 3))
    f[0, 2] = 0.3  # rank one, kernel span{e0, e1}
    rec = banach_perturbation(make_regular_orthogonal(t), f)
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
        assert rec.lhs == rec.rhs
        assert max(rec.perturbed.residuals.values()) < 1e-8
        # the perturbed operator's kernel really is killed by T + F
        tf = reg.t + f
        assert np.linalg.norm(tf @ rec.perturbed.kernel_basis) < 1e-8


def test_perturbation_zero_f(rng):
    reg = regular_from(rng, 5, 5)
    rec = banach_perturbation(reg, np.zeros((5, 5)))
    assert rec.lhs == rec.rhs
    assert rec.rank_f == 0
    assert rec.w_dim == reg.rank
    assert rec.kernel_perturbed_dim == reg.dim_ker
    assert rec.m_dim == rec.m_prime_dim == 0  # ker T sits inside ker F entirely


def test_perturbation_decides_t_plus_f_once_at_the_factor_scale():
    # T + F is noise of size 1e-15: zero at the scale ||T|| + ||F||, full
    # rank at its own, so the identity and the perturbed operator must read
    # one decision
    rng = np.random.default_rng(0)
    t = random_matrix(5, 5, rng, rank_deficit=1)
    f = -t + 1e-15 * rng.standard_normal((5, 5))
    rec = banach_perturbation(make_regular_orthogonal(t), f)
    assert rec.kernel_perturbed_dim == 5 and rec.perturbed.rank == 0
    assert rec.lhs == rec.rhs


def test_perturbation_shape_checked(rng):
    reg = regular_from(rng, 4, 4)
    with pytest.raises(StructureError):
        banach_perturbation(reg, np.zeros((3, 3)))


def test_product_of_regulars(rng):
    for _ in range(5):
        t_reg = regular_from(rng, 6, 5)
        s_reg = regular_from(rng, 4, 6)
        rec = banach_product(s_reg, t_reg)
        assert sum((-1) ** i * dim for i, dim in enumerate(rec.chain_dims)) == 0
        assert rec.witness_lhs == rec.witness_rhs
        assert max(rec.node_residuals, default=0.0) < 1e-8
        assert rec.injectivity_defect == 0.0 and rec.surjectivity_defect == 0.0
        assert max(rec.tu_residuals.values()) < 1e-8
        assert rec.gw_st or not (rec.gw_t and rec.gw_s)


def test_product_frozen_inclusion_projection():
    t_reg = make_regular_orthogonal(np.array([[1.0], [0.0]]))  # C -> C^2
    s_reg = make_regular_orthogonal(np.array([[1.0, 0.0]]))  # C^2 -> C
    rec = banach_product(s_reg, t_reg)
    assert rec.st.rank == 1
    assert not rec.gw_t and not rec.gw_s and rec.gw_st
    assert rec.chain_dims == (0, 0, 1, 1, 0, 0)
    assert rec.meet_dim == 0


def test_product_decides_st_at_the_factor_scale():
    # Im T = ker S, so ST is roundoff (||ST|| ~ 6e-16 against ||S|| ||T|| = 6)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    t = q[:, :2] @ np.diag([1.0, 2.0])
    s = np.diag([1.0, 3.0]) @ q[:, 2:].conj().T
    rec = banach_product(make_regular_orthogonal(s), make_regular_orthogonal(t))
    assert rec.st.rank == 0
    assert rec.chain_dims == (0, 2, 2, 2, 2, 0)
    chain = fredholm.product_chain(AdjointableMap.from_matrix(s), AdjointableMap.from_matrix(t))
    assert chain.kernel_product.dim == 2


def test_product_composability_checked(rng):
    a = make_regular_orthogonal(random_matrix(3, 4, rng))
    with pytest.raises(StructureError):
        banach_product(a, a)


def test_sheared_complement_stays_complementary(rng):
    t = random_matrix(5, 5, rng, rank_deficit=2)
    reg = make_regular_orthogonal(t)
    kc = sheared_complement(reg.kernel_basis, complement(reg.kernel_basis), rng, shear=0.5)
    ic = sheared_complement(reg.image_basis, complement(reg.image_basis), rng, shear=0.5)
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
    w = sub.column_bases[0]
    twin = sheared_complement(w, complement(w), np.random.default_rng(6), shear=0.5)
    assert np.array_equal(comp.column_bases[0], twin)
