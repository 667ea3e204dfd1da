"""Acceptance gate: eleven desk-scale certification runs.

Each test draws its own seeded instance pool, checks one contract at
its stated tolerance, and prints a single summary line (visible with
``pytest -s``).  Oracles here are deliberately independent of the
library internals: kernel chains are ranked with plain numpy, angle
routes are recomputed from scratch, and all counting identities are
checked in exact integer arithmetic.
"""

import math

import numpy as np
import pytest

from modop.algebra import AlgebraShape
from modop.banach import (
    banach_perturbation,
    banach_product,
    generalized_weyl_banach,
    make_regular,
)
from modop.cli import RunConfig, main, run_suite
from modop.drazin import (
    commuting_browder_check,
    commuting_drazin_criterion,
    drazin_dual_check,
    drazin_inverse,
)
from modop.fredholm import exact_sequence, weyl_perturbation_chain
from modop.geometry import closed_sum_report
from modop.probes import SQUARE_FAMILY_SCALE, family_table, multiplier_family
from modop.randgen import (
    random_commuting_pair,
    random_endomorphism,
    random_low_rank,
    random_map,
    random_matrix,
    random_regular_data,
    random_submodule,
)
from modop.serialize import dumps_canonical
from modop.tolerances import DEFAULT_TOL

from flat_oracle import from_matrix, realization


def _norm(a):
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def kernel_chain_ascent(f):
    """First k with ker A^k = ker A^(k+1), ranked by plain numpy."""
    a = realization(f)
    d = a.shape[0]
    power = np.eye(d, dtype=complex)
    nullities = []
    for _ in range(d + 2):
        nullities.append(d - np.linalg.matrix_rank(power))
        if len(nullities) >= 2 and nullities[-1] == nullities[-2]:
            return len(nullities) - 2
        power = power @ a
    raise AssertionError("kernel chain failed to stabilize")


# ---------------------------------------------------------------------------
# instance pools


ENDO_CONFIGS = (
    (AlgebraShape((1, 1, 1)), 4, ()),
    (AlgebraShape((1, 1, 1)), 4, (2,)),
    (AlgebraShape((2,)), 3, ()),
    (AlgebraShape((2,)), 3, (2,)),
    (AlgebraShape((2,)), 3, (3,)),
    (AlgebraShape((2, 3)), 2, ()),
    (AlgebraShape((2, 3)), 2, (2,)),
    (AlgebraShape((2, 3)), 2, (2, 2)),
)

PAIR_CONFIGS = (
    (AlgebraShape((1,)), 6, ()),
    (AlgebraShape((1,)), 7, (2,)),
    (AlgebraShape((1,)), 9, (3,)),
    (AlgebraShape((1, 1)), 3, ()),
    (AlgebraShape((1, 1)), 5, (2,)),
    (AlgebraShape((2,)), 2, (2,)),
    (AlgebraShape((1,)), 12, (3, 2)),
    (AlgebraShape((3,)), 1, (2,)),
)

GEOM_CONFIGS = (
    (AlgebraShape((1,) * 6), 5),
    (AlgebraShape((2, 3)), 2),
    (AlgebraShape((4,)), 2),
    (AlgebraShape((1, 1, 2)), 3),
)


@pytest.fixture(scope="module")
def endo_pool():
    rng = np.random.default_rng(1108)
    return [
        random_endomorphism(*ENDO_CONFIGS[i % len(ENDO_CONFIGS)][:2], rng,
                            nilpotent=ENDO_CONFIGS[i % len(ENDO_CONFIGS)][2])
        for i in range(200)
    ]


def commuting_pairs(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        shape, m, nil = PAIR_CONFIGS[i % len(PAIR_CONFIGS)]
        out.append(random_commuting_pair(shape, m, rng, nilpotent=nil))
    return out


# ---------------------------------------------------------------------------
# 1/2: core-nilpotent structure and its adjoint transport


def test_core_nilpotent_axioms_on_200_random_endomorphisms(endo_pool):
    worst = 0.0
    for f in endo_pool:
        rep = drazin_inverse(f)
        a, x = realization(f), realization(rep.drazin_inverse)
        nx = max(_norm(x), 1e-300)
        ap = np.linalg.matrix_power(a, rep.p)
        r1 = _norm(x @ a @ x - x) / nx
        r2 = _norm(a @ x - x @ a) / max(_norm(a) * nx, 1e-300)
        r3 = _norm(a @ ap @ x - ap) / max(_norm(ap), 1e-300)
        worst = max(worst, r1, r2, r3)
        assert max(r1, r2, r3) <= 1e-9
        assert rep.p == kernel_chain_ascent(f)
    print(f"[PASS] core-nilpotent axioms: 200/200, worst relative residual {worst:.3e} <= 1e-9")


def test_adjoint_transport_of_core_structure(endo_pool):
    worst = 0.0
    for f in endo_pool:
        dual = drazin_dual_check(f)
        assert dual.p == kernel_chain_ascent(f.adjoint())
        x_star = realization(drazin_inverse(f).drazin_inverse.adjoint())
        x_of_star = realization(drazin_inverse(f.adjoint()).drazin_inverse)
        diff = _norm(x_star - x_of_star) / max(_norm(x_of_star), 1e-300)
        worst = max(worst, diff, dual.inverse_residual)
        assert diff <= 1e-9 and dual.inverse_residual <= 1e-9
    print(f"[PASS] adjoint transport: 200/200, worst inverse mismatch {worst:.3e} <= 1e-9")


# ---------------------------------------------------------------------------
# 3/4: commuting pairs


def test_intersection_stabilization_criterion_agrees_with_direct_test():
    # the meets stop moving exactly at k = max(p, ind F), with p = ind(DF);
    # both indices are ranked directly by plain numpy
    ks = []
    for f, d in commuting_pairs(100, seed=2203):
        rep = commuting_drazin_criterion(f, d)
        p = kernel_chain_ascent(d @ f)
        assert rep.p == p
        assert rep.k == max(p, kernel_chain_ascent(f))
        ks.append(rep.k)
    print(f"[PASS] stabilization criterion: 100/100 stop at max(p, ind F); k values {sorted(set(ks))}")


def test_shared_splitting_block_diagonalizes_both_factors():
    worst = 0.0
    for f, d in commuting_pairs(100, seed=2204):
        rep = commuting_browder_check(f, d)
        for wit in (rep.witness_f, rep.witness_d):
            worst = max(worst, wit.off_diagonal_residual)
            assert wit.off_diagonal_residual <= 1e-8
            assert wit.gamma_f1 > 0
        assert rep.kernel_identity_defect <= 1e-8
    print(f"[PASS] shared splitting: 100/100 block-diagonal, worst off-diagonal {worst:.3e} <= 1e-8")


# ---------------------------------------------------------------------------
# 5: six-node sequence and index additivity


SEQ_DEFICITS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


def assert_index_bookkeeping(rep):
    """The alternating sums of the six dims and K0 classes vanish, and
    ind gf = ind f + ind g."""
    signs = (1, -1, 1, -1, 1, -1)
    assert sum(s * d for s, d in zip(signs, rep.dims)) == 0
    for column in zip(*(c.entries for c in rep.classes)):
        assert sum(s * e for s, e in zip(signs, column)) == 0
    assert rep.index_gf.entries == (rep.index_f + rep.index_g).entries


def test_six_node_sequence_exact_with_additive_index():
    rng = np.random.default_rng(2205)
    shape = AlgebraShape((2, 3))
    worst = 0.0
    for i in range(200):
        m1, m2, m3 = (int(rng.integers(2, 4)) for _ in range(3))
        df, dg = SEQ_DEFICITS[i % len(SEQ_DEFICITS)]
        f = random_map(shape, m1, m2, rng, rank_deficit=df)
        g = random_map(shape, m2, m3, rng, rank_deficit=dg)
        rep = exact_sequence(f, g)
        worst = max(worst, rep.worst_residual)
        assert rep.worst_residual <= 1e-8
        assert_index_bookkeeping(rep)
    print(f"[PASS] six-node exactness: 200/200, worst node residual {worst:.3e} <= 1e-8, "
          "index additive on every instance")


# ---------------------------------------------------------------------------
# 6: finite-class perturbation chain


def test_perturbation_chain_identity_exact_at_margin():
    rng = np.random.default_rng(2206)
    shape = AlgebraShape((2, 3))
    kept = attempts = 0
    while kept < 150:
        attempts += 1
        assert attempts < 2000, "instance filtering is rejecting too much"
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        t = random_map(shape, m, n, rng, rank_deficit=int(rng.integers(0, 3)))
        f = random_low_rank(shape, m, n, rng, rank=int(rng.integers(1, 3)), scale=0.5)
        rep = weyl_perturbation_chain(t, f)
        if rep.margin < 1e-6:
            continue
        kept += 1
        assert rep.lhs.entries == rep.rhs.entries
    print(f"[PASS] perturbation chain: 150/150 exact (from {attempts} draws, margin >= 1e-6)")


# ---------------------------------------------------------------------------
# 7/8: chosen-complement (Banach) side


def test_oblique_perturbation_stays_regular_with_exact_dimension_identity():
    rng = np.random.default_rng(2207)
    kept = attempts = 0
    worst = 0.0
    while kept < 150:
        attempts += 1
        assert attempts < 2000, "instance filtering is rejecting too much"
        rows, cols = int(rng.integers(5, 10)), int(rng.integers(5, 10))
        t, kc, ic = random_regular_data(
            rows, cols, rng, rank_deficit=int(rng.integers(1, 3)), shear=0.5
        )
        reg = make_regular(t, kc, ic)
        if max(reg.ker_decomposition.cond, reg.im_decomposition.cond) > 1e4:
            continue
        rank = int(rng.integers(1, 3))
        f = 0.4 * random_matrix(rows, cols, rng, rank_deficit=min(rows, cols) - rank)
        rec = banach_perturbation(reg, from_matrix(f))
        kept += 1
        assert not rec.ill_posed
        assert max(rec.perturbed.residuals.values()) <= 1e-8
        worst = max(worst, max(rec.perturbed.residuals.values()))
        assert rec.lhs == rec.rhs
    print(f"[PASS] oblique perturbation: 150/150 regular (worst residual {worst:.3e}), "
          "dimension identity exact")


def test_product_of_generalized_weyl_operators_is_generalized_weyl():
    rng = np.random.default_rng(2208)
    meets = []
    for _ in range(100):
        n = int(rng.integers(5, 9))
        dt, ds = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        t, kct, ict = random_regular_data(n, n, rng, rank_deficit=dt, shear=0.4)
        s, kcs, ics = random_regular_data(n, n, rng, rank_deficit=ds, shear=0.4)
        t_reg, s_reg = make_regular(t, kct, ict), make_regular(s, kcs, ics)
        assert generalized_weyl_banach(t_reg) and generalized_weyl_banach(s_reg)
        rec = banach_product(s_reg, t_reg)
        assert rec.gw_st
        assert rec.witness_lhs == rec.witness_rhs
        assert sum((-1) ** i * dim for i, dim in enumerate(rec.chain_dims)) == 0
        meets.append(rec.meet_dim)
    print(f"[PASS] generalized Weyl products: 100/100 certified; meet dims seen {sorted(set(meets))}")


# ---------------------------------------------------------------------------
# 9: angle identity and the summand bound


def test_angle_identity_and_summand_bound_under_sampling():
    rng = np.random.default_rng(2209)
    kept = attempts = 0
    worst_pyth = worst_routes = 0.0
    while kept < 200:
        attempts += 1
        assert attempts < 2000, "instance filtering is rejecting too much"
        shape, m = GEOM_CONFIGS[attempts % len(GEOM_CONFIGS)]
        r1, r2 = [], []
        for nb in shape.block_sizes:
            cap = m * nb
            a = int(rng.integers(0, cap))
            r1.append(a)
            r2.append(int(rng.integers(0, cap - a + 1)))
        if sum(r1) == 0 or sum(r2) == 0:
            continue
        msub = random_submodule(shape, m, rng, ranks=r1)
        nsub = random_submodule(shape, m, rng, ranks=r2)
        rep = closed_sum_report(msub, nsub, rng=rng, samples=10_000)
        if rep.reduced or rep.degenerate:
            continue  # intersection not trivial, or one side empty
        kept += 1
        assert rep.pythagoras_residual <= 1e-8
        worst_pyth = max(worst_pyth, rep.pythagoras_residual)
        # recompute the cosine by its two routes, from scratch
        c_gram = c_proj = 0.0
        for qm, qn in zip(msub.column_bases, nsub.column_bases):
            if qm.shape[1] == 0 or qn.shape[1] == 0:
                continue
            c_gram = max(c_gram, float(np.linalg.svd(qm.conj().T @ qn, compute_uv=False)[0]))
            c_proj = max(c_proj, _norm((qm @ qm.conj().T) @ (qn @ qn.conj().T)))
        worst_routes = max(worst_routes, abs(c_gram - c_proj), abs(rep.c0 - min(c_gram, 1.0)))
        assert abs(c_gram - c_proj) <= 1e-8
        assert abs(rep.c0 - min(c_gram, 1.0)) <= 1e-8
        assert rep.sample_count == 10_000
        assert rep.sampled_max_norm <= rep.bound_C + 1e-8
    print(f"[PASS] angle identity: 200/200, worst pythagoras {worst_pyth:.3e}, "
          f"route disagreement {worst_routes:.3e}; sampled bound never violated")


# ---------------------------------------------------------------------------
# 10: probe decay


def test_probe_families_exact_value_and_square_decay():
    for n in range(1, 65):
        f = multiplier_family(n)
        gamma = f.singular_data(DEFAULT_TOL, scale=f.norm()).gamma
        assert gamma == 1.0 / (n + 1)
    table = family_table("nonclosed-square", (4, 8, 16, 32))
    floor = SQUARE_FAMILY_SCALE / 2.0
    assert min(table.gamma_f) >= floor  # uniform positive lower bound
    assert all(a > b for a, b in zip(table.gamma_f2, table.gamma_f2[1:]))
    assert table.gamma_f2[-1] < 1e-3
    print("[PASS] probes: multiplier gamma == 1/(n+1) exactly for n in 1..64; "
          f"square-family gamma(F) >= {floor:.3f} while gamma(F^2) decays to "
          f"{table.gamma_f2[-1]:.3e} < 1e-3 at size 32")


# ---------------------------------------------------------------------------
# 11: determinism of the verification runner


def test_verification_runs_are_byte_deterministic(capsys):
    for suite, n in (("drazin-axioms", 3), ("exact-sequence", 2), ("closed-sum", 2)):
        argv = ["verify", suite, "--n", str(n), "--seed", "11", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == first.encode()
        cfg = RunConfig(seed=11, n=n, shape="2,3")
        assert dumps_canonical(run_suite(suite, cfg)) == dumps_canonical(run_suite(suite, cfg))
    with capsys.disabled():
        print("\n[PASS] determinism: repeated verification runs are byte-identical")
