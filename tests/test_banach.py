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
from modop.subspace import _residual_values
from modop.tolerances import ILL_POSED_PROJECTOR_NORM
from modop.randgen import (
    random_complement,
    random_low_rank,
    random_map,
    random_matrix,
    random_regular_data,
    random_submodule,
    sheared_complement,
)

from modop.modules import Submodule

from flat_oracle import columns, flat_basis, from_matrix, realization


def top(a):
    """Largest singular value of one matrix."""
    return np.linalg.svd(a, compute_uv=False)[0]


def regular_from(rng, rows, cols, rank_deficit=1, shear=0.3):
    t, kc, ic = random_regular_data(rows, cols, rng, rank_deficit=rank_deficit, shear=shear)
    return make_regular(t, kc, ic)


def test_invertible_operator_inverts():
    t = np.array([[2.0, 1.0], [0.0, 1.0]])
    reg = make_regular(from_matrix(t), columns(np.eye(2)), columns(np.zeros((2, 0))))
    assert reg.rank == 2 and reg.dim_ker == 0 and reg.codim_im == 0
    assert np.allclose(realization(reg.tprime), np.linalg.inv(t))
    assert max(reg.residuals.values()) < 1e-12


def test_orthogonal_choice_is_pseudoinverse(rng):
    t = random_matrix(4, 5, rng, rank_deficit=2)
    reg = make_regular_orthogonal(from_matrix(t))
    assert np.allclose(realization(reg.tprime), np.linalg.pinv(t), atol=1e-10)
    assert reg.dim_ker == 3 and reg.codim_im == 2


def test_oblique_frozen_example():
    # T = diag(1, 0), kernel complement span{(1,1)}, range complement span{(1,1)}
    t = np.diag([1.0, 0.0])
    kc = np.array([[1.0], [1.0]])
    ic = np.array([[1.0], [1.0]])
    reg = make_regular(from_matrix(t), columns(kc), columns(ic))
    tprime = realization(reg.tprime)
    assert np.allclose(tprime, [[1.0, -1.0], [1.0, -1.0]])
    # T T' projects onto Im T along the chosen complement, obliquely
    assert np.allclose(t @ tprime, [[1.0, -1.0], [0.0, 0.0]])
    assert np.allclose(tprime @ t, [[1.0, 0.0], [1.0, 0.0]])
    assert max(reg.residuals.values()) < 1e-12
    assert reg.im_decomposition.norm > 1.0  # genuinely oblique


def test_wrong_complements_rejected(rng):
    t = from_matrix(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(UnmetHypothesisError):
        make_regular(t, columns(np.eye(3)), columns(np.zeros((3, 0))))  # claims trivial kernel
    with pytest.raises(UnmetHypothesisError):
        # right dimensions, but the claimed range complement is inside Im T
        make_regular(t, columns(np.eye(3)[:, :2]), columns(np.eye(3)[:, :1]))
    # a complement of the wrong module
    with pytest.raises(StructureError, match="complements must lie in the domain and codomain"):
        make_regular(t, columns(np.eye(2)), columns(np.zeros((3, 0))))


def test_witness_pads():
    tall = make_regular_orthogonal(from_matrix(np.vstack([np.eye(2), np.zeros((1, 2))])))
    assert not generalized_weyl_banach(tall)
    wit = defect_witness(tall)
    assert (wit.z1, wit.z2) == (1, 0)
    square = make_regular_orthogonal(from_matrix(np.diag([1.0, 0.0])))
    assert generalized_weyl_banach(square)
    assert defect_witness(square) == BanachWitness(0, 0)


def test_oblique_decomposition_conditioning(rng):
    onto = columns([[1.0], [0.0]])
    near_parallel = columns([[1.0], [1e-7]])
    dec = oblique_decomposition(onto, near_parallel)
    assert dec.norm > 1e6
    assert dec.ill_posed
    assert dec.idempotency_residual < 1e-8


def test_idempotent_norm_is_one_over_the_smallest_sine(rng):
    theta = 0.3
    onto = columns([[1.0], [0.0]])
    along = columns([[np.cos(theta)], [np.sin(theta)]])
    assert abs(1.0 / oblique_decomposition(onto, along).norm - np.sin(theta)) < 1e-14
    # an empty half leaves E = 0 or E = I, and nothing to cross-check
    full, empty = columns(random_matrix(4, 4, rng)), columns(np.zeros((4, 0)))
    assert oblique_decomposition(empty, full).norm == 0.0
    assert abs(oblique_decomposition(full, empty).norm - 1.0) < 1e-12
    # per block: the largest norm and the smallest sine over the blocks of
    # a three-block submodule pair, one block with an empty half
    shape = AlgebraShape((1, 1, 2))
    tilts = (0.3, 0.7)
    onto = Submodule(shape, 2, (np.eye(2)[:, :1], np.eye(2)[:, :1], np.eye(4)))
    along = Submodule(
        shape,
        2,
        tuple(np.array([[np.cos(a)], [np.sin(a)]]) for a in tilts) + (np.zeros((4, 0)),),
    )
    dec = oblique_decomposition(onto, along)
    assert dec.ambient == 12
    assert abs(1.0 / dec.norm - np.sin(0.3)) < 1e-14
    assert abs(dec.norm - np.linalg.norm(realization(dec.idempotent), 2)) < 1e-12
    flat_s = np.hstack([flat_basis(dec.image), flat_basis(dec.kernel)])
    assert abs(dec.cond - np.linalg.cond(flat_s)) < 1e-12 * dec.cond


def test_idempotent_norm_gate_reads_the_orthonormal_bases():
    # onto's columns are 1e-9 apart, but E is built from the orthonormal
    # bases of the two spans, which meet at a large angle: ||E|| matches
    # 1/sin theta_min to roundoff, and the basis matrix is conditioned by
    # the angle alone, cot(theta_min / 2)
    q, _ = np.linalg.qr(np.random.default_rng(39).standard_normal((4, 4)))
    u, v, w, z = q.T
    onto = np.stack([u, u + 1e-9 * v], axis=1)
    along = np.stack([w + 0.1 * u, z], axis=1)
    dec = oblique_decomposition(columns(onto), columns(along))
    sin_min = _residual_values(dec.kernel.column_bases[0], dec.image.column_bases[0])[-1]
    assert sin_min > 0.9
    assert abs(1.0 / dec.norm - sin_min) <= 1e-14
    assert abs(dec.cond - 1.0 / np.tan(0.5 * np.arcsin(sin_min))) <= 1e-12


def test_idempotent_norm_gate_trips_on_a_planted_norm(rng, monkeypatch):
    onto, along = columns(random_matrix(5, 2, rng)), columns(random_matrix(5, 3, rng))
    true_norm = banach._top_singular
    monkeypatch.setattr(banach, "_top_singular", lambda g: true_norm(g) * (1.0 + 1e-6))
    with pytest.raises(IdentityViolation, match=r"idempotent norm .* is not 1/sin theta_min"):
        oblique_decomposition(onto, along)


def test_make_regular_computes_each_projector_norm_once(svd_calls):
    t, kc, ic = random_regular_data(6, 6, np.random.default_rng(8), rank_deficit=1)
    f = from_matrix(0.4 * random_matrix(6, 6, np.random.default_rng(9), rank_deficit=5))  # rank 1
    # One SVD of T gives ker T, Im T, their orthogonal complements and ||T||;
    # the complements are submodules, so their bases come orthonormal; per
    # decomposition the basis matrix [W A] (its values give the rank check,
    # cond and the sine of the identity check), ||E|| and the idempotency
    # residual; five residual norms.  The perturbation reads ||T||, ker T
    # and Im T off T's regular operator and takes one SVD of F (ker F and
    # ||F||), one of T+F (its complements included), T(ker F), the parts N,
    # N' and M of Im T, Im(T+F) and ker T outside T(ker F) and ker F (M' is
    # zero: T+F is invertible) and the perturbed operator.  A second
    # decomposition of T, F or T+F, a norm taken beside its SVD, an
    # orthonormal basis orthonormalized again, or a recomputed ||E||, shows
    # here.
    reg = make_regular(t, kc, ic)

    def fresh(a):  # the same map, with no spectral record yet
        return AdjointableMap(a.shape, a.m, a.n, a.blocks)

    for build, expected in (
        (lambda: make_regular(fresh(t), kc, ic), 12),
        (lambda: make_regular_orthogonal(fresh(t)), 12),
        (lambda: banach_perturbation(reg, fresh(f)).perturbed, 17),
    ):
        svd_calls.clear()
        out = build()
        assert len(svd_calls) == expected
        # the stored norms give the bits per-block SVDs give
        for dec in (out.ker_decomposition, out.im_decomposition):
            e = dec.idempotent.blocks[0]
            assert dec.norm == top(e)
            assert dec.idempotency_residual == top(e @ e - e) / max(top(e), 1e-300)
        t_, tp = out.t.blocks[0], out.tprime.blocks[0]
        e_y = out.im_decomposition.idempotent.blocks[0]
        e_x = out.ker_decomposition.idempotent.blocks[0]
        assert out.residuals["tt_is_im_projection"] == top(t_ @ tp - e_y) / max(top(e_y), 1.0)
        assert out.residuals["t_t_is_ker_projection"] == top(tp @ t_ - e_x) / max(top(e_x), 1.0)


@pytest.mark.parametrize("suite, budget", [("banach-perturbation", 156), ("banach-product", 253)])
def test_banach_suites_keep_their_svd_budget(svd_calls, suite, budget):
    # the first five instances at seed 5 on 2,3: every space orthonormalized
    # once, each T decomposed by one SVD and its norm read off it, and the
    # complements' mixes of one shape scaled by one SVD across the batch; a
    # re-added decomposition or norm shows here
    payload = run_suite(suite, RunConfig(seed=5, n=5, shape="2,3"))
    assert payload["passes"] == 5
    assert len(svd_calls) <= budget


def test_ill_posed_above_the_projector_norm_bound():
    assert ILL_POSED_PROJECTOR_NORM == 1e6
    # onto e0 along (1, tilt): the projector norm is sqrt(1 + tilt^-2)
    onto = columns([[1.0], [0.0]])
    for tilt, ill_posed in ((1e-5, False), (1e-7, True)):
        dec = oblique_decomposition(onto, columns([[1.0], [tilt]]))
        assert dec.norm == pytest.approx(1.0 / tilt, rel=1e-6)
        assert dec.ill_posed is ill_posed


def test_perturbation_frozen_rank_one():
    t = np.diag([1.0, 1.0, 0.0])
    f = np.zeros((3, 3))
    f[0, 2] = 0.3  # rank one, kernel span{e0, e1}
    rec = banach_perturbation(make_regular_orthogonal(from_matrix(t)), from_matrix(f))
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
        rec = banach_perturbation(reg, from_matrix(f))
        assert rec.lhs == rec.rhs
        assert max(rec.perturbed.residuals.values()) < 1e-8
        # the perturbed operator's kernel really is killed by T + F
        tf = realization(reg.t) + f
        assert np.linalg.norm(tf @ flat_basis(rec.perturbed.kernel)) < 1e-8


def _flat_banach_integers(t, f):
    """(rank, generalized Weyl, lhs, rhs, w, n, m) of T -> T + F from ranks of
    the flat realizations: dim T(ker F) = rank [T; F] - rank F, and
    dim ker T - dim(ker T ∩ ker F) = rank [T; F] - rank T."""
    a, b = realization(t), realization(f)
    rank = np.linalg.matrix_rank
    r_t, r_f, r_sum, r_both = rank(a), rank(b), rank(a + b), rank(np.vstack([a, b]))
    rows, cols = a.shape
    ker, codim = cols - r_t, rows - r_t
    w = r_both - r_f
    m, m_prime = r_both - r_t, r_both - r_sum  # ker(T+F) ∩ ker F = ker T ∩ ker F
    z1, z2 = max(0, codim - ker), max(0, ker - codim)
    lhs = cols - r_sum + m + (r_t - w) + z1
    rhs = rows - r_sum + m_prime + (r_sum - w) + z2
    return r_t, ker == codim, lhs, rhs, w, r_t - w, m


def test_banach_integers_match_flat_ranks():
    shape = AlgebraShape((2, 3))
    rng = np.random.default_rng(1)
    t = random_map(shape, 3, 3, rng, rank_deficit=1)
    f = random_low_rank(shape, 3, 3, rng, rank=1)
    rect_t = random_map(shape, 3, 2, rng, rank_deficit=1)
    rect_f = random_low_rank(shape, 3, 2, rng, rank=1)
    zero = AdjointableMap.zero(shape, 3, 3)
    cases = {
        "generic": (t, f),
        "T = 0": (zero, f),
        "F = -T": (t, -t),
        "F = 0": (t, zero),
        "A^3 -> A^2": (rect_t, rect_f),
        "2^-560": (2.0**-560 * t, 2.0**-560 * f),
        "2^500": (2.0**500 * t, 2.0**500 * f),
    }
    got = {}
    for name, (t_map, f_map) in cases.items():
        reg = make_regular_orthogonal(t_map)
        rec = banach_perturbation(reg, f_map)
        weyl = generalized_weyl_banach(reg)
        got[name] = (reg.rank, weyl, rec.lhs, rec.rhs, rec.w_dim, rec.n_dim, rec.m_dim)
        assert got[name] == _flat_banach_integers(t_map, f_map), name
    assert got["generic"] == got["2^-560"] == got["2^500"] == (34, True, 13, 13, 26, 8, 5)


def test_perturbation_zero_f(rng):
    reg = regular_from(rng, 5, 5)
    rec = banach_perturbation(reg, from_matrix(np.zeros((5, 5))))
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
    rec = banach_perturbation(make_regular_orthogonal(from_matrix(t)), from_matrix(f))
    assert rec.kernel_perturbed_dim == 5 and rec.perturbed.rank == 0
    assert rec.lhs == rec.rhs


def test_perturbation_shape_checked(rng):
    reg = regular_from(rng, 4, 4)
    with pytest.raises(StructureError):
        banach_perturbation(reg, from_matrix(np.zeros((3, 3))))


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
    t_reg = make_regular_orthogonal(from_matrix([[1.0], [0.0]]))  # C -> C^2
    s_reg = make_regular_orthogonal(from_matrix([[1.0, 0.0]]))  # C^2 -> C
    rec = banach_product(s_reg, t_reg)
    assert rec.st.rank == 1
    assert not rec.gw_t and not rec.gw_s and rec.gw_st
    assert rec.chain_dims == (0, 0, 1, 1, 0, 0)
    assert rec.meet_dim == 0


def test_product_decides_st_at_the_factor_scale():
    # Im T = ker S, so ST is roundoff (||ST|| ~ 6e-16 against ||S|| ||T|| = 6)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    t = from_matrix(q[:, :2] @ np.diag([1.0, 2.0]))
    s = from_matrix(np.diag([1.0, 3.0]) @ q[:, 2:].conj().T)
    rec = banach_product(make_regular_orthogonal(s), make_regular_orthogonal(t))
    assert rec.st.rank == 0
    assert rec.chain_dims == (0, 2, 2, 2, 2, 0)
    chain = fredholm.product_chain(s, t)
    assert chain.kernel_product.dim == 2


def test_product_composability_checked(rng):
    a = make_regular_orthogonal(from_matrix(random_matrix(3, 4, rng)))
    with pytest.raises(StructureError):
        banach_product(a, a)


def test_sheared_complement_stays_complementary(rng):
    t = from_matrix(random_matrix(5, 5, rng, rank_deficit=2))
    reg = make_regular_orthogonal(t)
    kc = sheared_complement(reg.kernel, reg.kernel.complement(), rng, shear=0.5)
    ic = sheared_complement(reg.image, reg.image.complement(), rng, shear=0.5)
    sheared = make_regular(t, kc, ic)
    assert sheared.rank == reg.rank
    assert max(sheared.residuals.values()) < 1e-10
    assert sheared.im_decomposition.norm < 10  # modest shear, modest projector
    # the module generators draw exactly as their per-block matrix twins
    f = random_map(AlgebraShape((4,)), 2, 3, np.random.default_rng(5), rank_deficit=1)
    t = random_matrix(12, 8, np.random.default_rng(5), rank_deficit=1)
    assert np.array_equal(f.blocks[0], t)
    shape = AlgebraShape((2, 3))
    sub = random_submodule(shape, 2, rng, ranks=(2, 3))
    comp = random_complement(sub, np.random.default_rng(6), shear=0.5)
    twin_rng = np.random.default_rng(6)
    for w, c in zip(sub.column_bases, comp.column_bases):
        w = Submodule(AlgebraShape((1,)), w.shape[0], (w,))
        twin = sheared_complement(w, w.complement(), twin_rng, shear=0.5)
        assert np.array_equal(c, twin.column_bases[0])
