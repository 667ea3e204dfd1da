"""Angles between submodules, closed-sum bounds, composition margins."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from modop import geometry
from modop.algebra import AlgebraShape
from modop.errors import IdentityViolation, StructureError
from modop.geometry import (
    _module_norms,
    bouldin_criterion,
    closed_sum_report,
    dixmier_angle,
    min_modulus_restricted,
)
from modop.linmap import AdjointableMap
from modop.modules import Submodule
from modop.randgen import parse_shape, random_submodule

from flat_oracle import flat_basis, from_matrix
from map_oracle import orthogonal_projection


def line(shape, m, b_angles):
    """Single-column submodule per block, tilted by the given angles."""
    bases = []
    for nb, theta in zip(shape.block_sizes, b_angles):
        col = np.zeros((m * nb, 1), dtype=complex)
        col[0, 0], col[1, 0] = math.cos(theta), math.sin(theta)
        bases.append(col)
    return Submodule(shape, m, tuple(bases))


def test_planted_angle_is_exact(shape23):
    m = line(shape23, 2, (0.0, 0.0))
    n = line(shape23, 2, (0.3, 0.3))
    assert abs(dixmier_angle(m, n) - math.cos(0.3)) < 1e-14
    assert abs(min_modulus_restricted(m, n) - math.sin(0.3)) < 1e-14


def test_extremes_are_taken_across_blocks(shape23):
    # cos is maximised and sin minimised at the same (smallest) angle
    m = line(shape23, 2, (0.0, 0.0))
    n = line(shape23, 2, (0.7, 0.3))
    assert abs(dixmier_angle(m, n) - math.cos(0.3)) < 1e-14
    assert abs(min_modulus_restricted(m, n) - math.sin(0.3)) < 1e-14


def test_blockwise_values_equal_flat_oracle(shape23, rng):
    m = random_submodule(shape23, 3, rng, ranks=(1, 2))
    n = random_submodule(shape23, 3, rng, ranks=(2, 1))
    c0 = dixmier_angle(m, n)
    flat_cross = flat_basis(m).conj().T @ flat_basis(n)
    assert abs(c0 - np.linalg.svd(flat_cross, compute_uv=False)[0]) < 1e-12
    delta = min_modulus_restricted(m, n)
    qm, qn = flat_basis(m), flat_basis(n)
    flat_outside = qn - qm @ (qm.conj().T @ qn)  # (I - P_M) on span(N)
    assert abs(delta - np.linalg.svd(flat_outside, compute_uv=False)[-1]) < 1e-12


def test_min_modulus_conventions(shape23, rng):
    m = random_submodule(shape23, 2, rng, ranks=(1, 1))
    zero = Submodule.zero(shape23, 2)
    assert min_modulus_restricted(m, zero) == math.inf
    # shared directions push the modulus to numerical zero
    assert min_modulus_restricted(m, m) < 1e-8


@pytest.mark.parametrize(
    "certify",
    [
        lambda m: closed_sum_report(m, m, samples=0),
        lambda m: bouldin_criterion(orthogonal_projection(m), 0 * orthogonal_projection(m)),
    ],
    ids=["closed_sum_report", "bouldin_criterion"],
)
def test_reduced_pair_with_zero_delta_is_rejected(certify, shape23, rng, monkeypatch):
    # the reduction planted as finding no intersection of a pair that meets:
    # (M, M), or (Im F, ker D) = (M, everything)
    monkeypatch.setattr(
        geometry, "_reduce", lambda a, b: (Submodule.zero(a.shape, a.m), a, b)
    )
    with pytest.raises(IdentityViolation, match=r"^trivial intersection but delta = .* is numerically zero"):
        certify(random_submodule(shape23, 2, rng, ranks=(1, 1)))


def test_reduced_pairs_are_not_intersected_again(shape23, rng, monkeypatch):
    # (Im F, ker D) = (M, N) is transverse: one intersection.  The adjoint
    # pair (N^perp, M^perp) meets, and its reduction splits the meet off
    # inside each space, so it makes one as well.  The four margins read
    # the reductions and intersect nothing themselves.
    calls = [0]
    real = Submodule.intersection

    def counting(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(Submodule, "intersection", counting)
    m = random_submodule(shape23, 3, rng, ranks=(1, 1))
    n = random_submodule(shape23, 3, rng, ranks=(1, 2))
    p_m, p_n = orthogonal_projection(m), orthogonal_projection(n)
    bouldin_criterion(p_m, AdjointableMap.identity(shape23, 3) - p_n)
    assert calls[0] == 1 + 1


def test_closed_sum_pythagoras(shape23, rng):
    m = random_submodule(shape23, 3, rng, ranks=(1, 1))
    n = random_submodule(shape23, 3, rng, ranks=(1, 2))
    rep = closed_sum_report(m, n, rng=rng, samples=2000)
    assert rep.pythagoras_residual is not None and rep.pythagoras_residual < 1e-8
    assert rep.verdict  # random spaces are transverse with working margin
    assert not rep.reduced and rep.intersection_class.is_zero()
    assert rep.bound_C == (rep.delta + 1.0) / rep.delta
    assert rep.sampled_max_norm <= rep.bound_C
    assert rep.sample_count == 2000


def test_closed_sum_removes_intersection(shape23, rng):
    shared = random_submodule(shape23, 3, rng, ranks=(1, 0))
    m = shared.add(random_submodule(shape23, 3, rng, ranks=(0, 1)))
    n = shared.add(random_submodule(shape23, 3, rng, ranks=(1, 1)))
    rep = closed_sum_report(m, n, rng=rng, samples=500)
    assert rep.reduced
    assert rep.intersection_class.entries == (1, 0)
    assert rep.pythagoras_residual < 1e-8  # computed on the reduced pair


def test_closed_sum_degenerate_zero_summand(shape23, rng):
    m = random_submodule(shape23, 2, rng, ranks=(1, 1))
    rep = closed_sum_report(m, Submodule.zero(shape23, 2), samples=100)
    assert rep.degenerate
    assert rep.delta == math.inf
    assert rep.bound_C == 1.0
    assert rep.verdict


def test_closed_sum_near_parallel_bound_grows(shape23, rng):
    m = line(shape23, 2, (0.0, 0.0))
    n = line(shape23, 2, (1e-2, 1e-2))
    rep = closed_sum_report(m, n, rng=rng, samples=3000)
    assert rep.bound_C > 100  # (sin 1e-2 + 1)/sin 1e-2
    assert rep.sampled_max_norm <= rep.bound_C
    assert rep.sampled_max_norm > 1.0  # summands really do blow past norm(x+y)


def test_min_modulus_gate_trips_on_a_planted_meet(shape23, rng, monkeypatch):
    # a transverse pair (delta of order 1) whose intersection is planted nonzero
    m = random_submodule(shape23, 3, rng, ranks=(1, 1))
    n = random_submodule(shape23, 3, rng, ranks=(1, 1))
    monkeypatch.setattr(Submodule, "intersection", lambda sub, other: (sub, math.inf))
    with pytest.raises(IdentityViolation, match=r"^nonzero intersection \(class .*\) but delta = "):
        min_modulus_restricted(m, n)


def test_summand_bound_gate_trips_on_a_planted_bound(shape23, rng, monkeypatch):
    # the near-parallel samples reach well past 1, so a bound of 1 must fail
    m = line(shape23, 2, (0.0, 0.0))
    n = line(shape23, 2, (1e-2, 1e-2))
    monkeypatch.setattr(geometry, "_bound_from_delta", lambda delta: 1.0)
    with pytest.raises(IdentityViolation, match=r"sampled summand norm .* exceeds the bound"):
        closed_sum_report(m, n, rng=rng, samples=3000)


def test_pythagoras_gate_trips_on_a_planted_cosine(shape23, monkeypatch):
    m = line(shape23, 2, (0.0, 0.0))
    n = line(shape23, 2, (0.3, 0.3))
    true_angle = geometry.dixmier_angle
    monkeypatch.setattr(
        geometry, "dixmier_angle", lambda a, b, tol: true_angle(a, b, tol) - 1e-3
    )
    with pytest.raises(IdentityViolation, match=r"c0\^2 \+ delta\^2 = 1 violated"):
        closed_sum_report(m, n, samples=0)


def _cnormal(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _flat_module_norms(sub, flats):
    """Module norm of each flat column: the largest spectral norm of its
    per-block tall forms (oracle: one SVD per sample and block)."""
    count, off, norms = flats.shape[1], 0, np.zeros(flats.shape[1])
    for nb in sub.shape.block_sizes:
        seg = sub.m * nb * nb
        talls = flats[off : off + seg].T.reshape(count, sub.m * nb, nb)
        norms = np.maximum(norms, np.linalg.norm(talls, ord=2, axis=(1, 2)))
        off += seg
    return norms


def _planted_pairs(shape, rng):
    k = shape.num_blocks
    shared = random_submodule(shape, 4, rng, ranks=(1,) + (0,) * (k - 1))
    return {
        "transverse": (
            random_submodule(shape, 4, rng, ranks=(1,) * k),
            random_submodule(shape, 4, rng, ranks=(2,) * k),
        ),
        "reduced": (
            shared.add(random_submodule(shape, 4, rng, ranks=(0,) * (k - 1) + (1,))),
            shared.add(random_submodule(shape, 4, rng, ranks=(1,) * k)),
        ),
        "near-parallel": (line(shape, 4, (0.0,) * k), line(shape, 4, (1e-2,) * k)),
    }


@pytest.mark.parametrize("case", ["transverse", "reduced", "near-parallel"])
@pytest.mark.parametrize("shape_text", ["1", "2,3", "1^4"])
def test_coefficient_norms_match_ambient_oracle(shape_text, case):
    shape = parse_shape(shape_text)
    m, n = _planted_pairs(shape, np.random.default_rng(4))[case]
    samples = 2000
    rep = closed_sum_report(m, n, rng=np.random.default_rng(9), samples=samples)
    assert rep.reduced == (case == "reduced")
    if rep.reduced:  # the bases the report samples on
        _, m, n = geometry._reduce(m, n)
    # same seeded draws, taken as coefficients on the flat oracle bases
    draw = np.random.default_rng(9)
    x = flat_basis(m) @ _cnormal(draw, m.dim, samples)
    y = flat_basis(n) @ _cnormal(draw, n.dim, samples)
    expect = float(np.max(_flat_module_norms(m, x) / _flat_module_norms(m, x + y)))
    assert rep.sample_count == samples
    assert abs(rep.sampled_max_norm - expect) <= 1e-12 * expect


def test_oblique_norm_gate_trips_on_a_planted_norm(shape23, monkeypatch):
    m = line(shape23, 2, (0.0, 0.0))
    n = line(shape23, 2, (0.3, 0.3))
    true_factors = geometry._oblique_factors

    def planted(wm, wn):
        r, values = true_factors(wm, wn)
        return r, values * (1.0 + 1e-6)

    monkeypatch.setattr(geometry, "_oblique_factors", planted)
    # the Pythagoras gate runs first and passes: the message is the new gate's
    with pytest.raises(IdentityViolation, match=r"oblique projector norm .* is not 1/delta"):
        closed_sum_report(m, n, samples=0)


def _flat_reduced(qm, qn):
    """Flat orthonormal bases of M and N with their intersection projected
    out (dense oracle: SciPy null space of [Q_M, -Q_N])."""
    null = scipy.linalg.null_space(np.hstack([qm, -qn]), rcond=1e-9)
    if null.shape[1] == 0:
        return qm, qn
    meet = scipy.linalg.orth(qm @ null[: qm.shape[1]])
    return tuple(
        scipy.linalg.orth(q - meet @ (meet.conj().T @ q), rcond=1e-9) for q in (qm, qn)
    )


def _zero_block_pair(shape, rng):
    """Blocks alternate between no M columns and no N columns, with the
    remaining blocks (if any) carrying both."""
    k = shape.num_blocks
    ranks_m = tuple((0, 1, 1)[b % 3] for b in range(k))
    ranks_n = tuple((2, 0, 1)[b % 3] for b in range(k))
    return random_submodule(shape, 4, rng, ranks=ranks_m), random_submodule(
        shape, 4, rng, ranks=ranks_n
    )


@pytest.mark.parametrize(
    "shape_text, case",
    [
        (text, case)
        for text in ("1", "2,3", "1^4")
        for case in ("transverse", "reduced", "near-parallel")
    ]
    + [("2,3", "zero-blocks"), ("1^4", "zero-blocks")],
)
def test_oblique_norm_matches_dense_projector_oracle(shape_text, case):
    shape = parse_shape(shape_text)
    rng = np.random.default_rng(4)
    if case == "zero-blocks":
        m, n = _zero_block_pair(shape, rng)
    else:
        m, n = _planted_pairs(shape, rng)[case]
    rep = closed_sum_report(m, n, samples=0)
    assert rep.reduced == (case == "reduced")
    qm, qn = _flat_reduced(flat_basis(m), flat_basis(n))
    # P = [Q_M 0] [Q_M Q_N]^+ : onto M along N, zero off M + N
    both = np.hstack([qm, qn])
    proj = np.hstack([qm, np.zeros_like(qn)]) @ np.linalg.pinv(both)
    expect = float(np.linalg.norm(proj, 2))
    assert abs(rep.oblique_norm - expect) <= 1e-12 * expect


@pytest.mark.parametrize(
    "shape_text, case",
    [(text, case) for text in ("1", "2,3", "1^4") for case in ("transverse", "reduced")]
    + [("2,3", "zero-blocks"), ("1^4", "zero-blocks")],
)
def test_reduction_matches_dense_oracle(shape_text, case):
    # M ⊖ K and N ⊖ K, split off inside each space, are the SciPy oracle's
    # parts orthogonal to the meet, with orthonormal bases held one stack per shape
    shape = parse_shape(shape_text)
    rng = np.random.default_rng(4)
    m, n = _zero_block_pair(shape, rng) if case == "zero-blocks" else _planted_pairs(shape, rng)[case]
    meet, m_red, n_red = geometry._reduce(m, n)
    assert meet.k0().is_zero() == (case != "reduced")
    for got, expect in zip((m_red, n_red), _flat_reduced(flat_basis(m), flat_basis(n))):
        q = flat_basis(got)
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 1e-13
        assert np.abs(q @ q.conj().T - expect @ expect.conj().T).max() <= 1e-13
        shapes = [s.shape[1:] for s in got.groups.stacks]
        assert len(shapes) == len(set(shapes))


def test_sampled_ratios_never_exceed_the_oblique_norm():
    rng = np.random.default_rng(50)
    shape = parse_shape("2,3")
    for _ in range(50):
        m = random_submodule(shape, 3, rng, ranks=tuple(rng.integers(1, 3, size=2)))
        n = random_submodule(shape, 3, rng, ranks=tuple(rng.integers(1, 3, size=2)))
        rep = closed_sum_report(m, n, rng=rng, samples=200)
        assert rep.sampled_max_norm <= rep.oblique_norm * (1.0 + 1e-12)


def test_oblique_norm_gate_holds_when_ill_conditioned(shape23):
    m = line(shape23, 2, (0.0, 0.0))
    n = line(shape23, 2, (1e-6, 1e-6))
    rep = closed_sum_report(m, n, samples=0)  # the gate must not fire
    assert not rep.reduced
    assert abs(rep.delta - math.sin(1e-6)) < 1e-15
    assert abs(rep.oblique_norm - 1.0 / math.sin(1e-6)) <= 1e-9 / math.sin(1e-6)


def _sine_pair(theta):
    f = from_matrix(np.array([[math.cos(theta)], [math.sin(theta)]]))
    d = from_matrix(np.array([[0.0, 1.0]]))  # kernel = first axis
    return f, d


def test_composition_margin_equals_planted_sine():
    theta = 0.4
    rep = bouldin_criterion(*_sine_pair(theta))
    assert abs(rep.margin_p - math.sin(theta)) < 1e-12
    assert abs(rep.closed_sum.delta - math.sin(theta)) < 1e-12  # margin_q
    assert abs(rep.closed_sum.c0 - math.cos(theta)) < 1e-12
    assert abs(rep.gamma_composition - math.sin(theta)) < 1e-12
    assert rep.closed_sum.verdict and not rep.closed_sum.reduced
    assert rep.duality_residual < 1e-12


def test_composition_identity_pair_degenerate(shape23):
    one = AdjointableMap.identity(shape23, 2)
    rep = bouldin_criterion(one, one)
    assert rep.closed_sum.degenerate  # ker D = 0 leaves nothing to project
    assert rep.closed_sum.delta == math.inf  # margin_q: its domain is the zero space
    assert rep.closed_sum.verdict


def test_composition_margin_on_the_zero_space_is_infinite():
    # F = 0: Im F = 0, so margin_p has nothing to act on
    f = from_matrix(np.zeros((2, 1)))
    d = from_matrix(np.array([[0.0, 1.0]]))
    rep = bouldin_criterion(f, d)
    assert rep.margin_p == math.inf
    assert rep.closed_sum.delta == 1.0 and rep.closed_sum.verdict


def test_composition_with_overlap_is_reduced():
    f = from_matrix(np.eye(2))
    d = from_matrix(np.array([[0.0, 1.0]]))
    rep = bouldin_criterion(f, d)
    assert rep.closed_sum.reduced
    assert rep.closed_sum.intersection_class.entries == (1,)  # ker D sits inside Im F
    assert rep.closed_sum.verdict  # leftover pieces are orthogonal


def _closed_sum_delta(new_delta):
    def plant(real):
        def planted(*args, **kwargs):
            rep = real(*args, **kwargs)
            delta = new_delta(rep.delta)
            return replace(rep, delta=delta, verdict=delta > 0.0)

        return planted

    return plant


def _tilted_adjoint(real):
    # an "adjoint" off by 1e-6 in every entry: the dual pair moves, the pair does not
    def planted(self):
        a = real(self)
        return AdjointableMap(a.shape, a.m, a.n, tuple(b + 1e-6 for b in a.blocks))

    return planted


# One planted defect per composition gate, on the sin 0.4 pair.
COMPOSITION_DEFECTS = [
    (geometry, "_closed_sum", _closed_sum_delta(lambda delta: 0.0),
     "restricted-projection margins disagree"),
    (geometry, "_closed_sum", _closed_sum_delta(lambda delta: delta + 1e-6),
     "the two margins should coincide"),
    (AdjointableMap, "adjoint", _tilted_adjoint,
     "margins not symmetric under the adjoint swap"),
]


@pytest.mark.parametrize("module, name, plant, message", COMPOSITION_DEFECTS)
def test_composition_gates_trip_on_planted_defects(monkeypatch, module, name, plant, message):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    with pytest.raises(IdentityViolation, match=message):
        bouldin_criterion(*_sine_pair(0.4))


def test_geometry_inputs_validated(shape23, rng):
    other = AlgebraShape((2,))
    with pytest.raises(StructureError):
        dixmier_angle(random_submodule(shape23, 2, rng), random_submodule(other, 2, rng))
    f = AdjointableMap.identity(shape23, 2)
    g = AdjointableMap.identity(shape23, 3)
    with pytest.raises(StructureError):
        bouldin_criterion(f, g)


@pytest.mark.parametrize("shape_text", ["1", "2,3", "4", "1^6"])
def test_module_norms_match_tall_matrix_oracle(shape_text, rng):
    shape = parse_shape(shape_text)
    m, count = 3, 40
    stacks = [
        rng.normal(size=(count, m * nb, nb)) + 1j * rng.normal(size=(count, m * nb, nb))
        for nb in shape.block_sizes
    ]
    for talls in stacks:
        talls[7] = 0.0  # an all-zero sample must give 0, not nan
    got = _module_norms(stacks)
    expect = np.array(
        [max(np.linalg.norm(talls[j], 2) for talls in stacks) for j in range(count)]
    )
    assert got[7] == 0.0
    assert np.all(np.abs(got - expect) <= 1e-13 * expect)
    assert _module_norms([talls[:0] for talls in stacks]).shape == (0,)
