"""Low-level subspace numerics: rank decisions, angles, projectors, chain checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modop.algebra import AlgebraShape
from modop.banach import oblique_decomposition
from modop.errors import UnmetHypothesisError
from modop.modules import Submodule
from modop.subspace import Grouped, _residual_values, chains_exactness

from flat_oracle import columns, from_matrix, realization


def tilted_plane(theta, ambient=4):
    """span{e0, cos(theta) e1 + sin(theta) e2} inside C^ambient."""
    q = np.zeros((ambient, 2), dtype=complex)
    q[0, 0] = 1.0
    q[1, 1] = math.cos(theta)
    q[2, 1] = math.sin(theta)
    return q


def image_basis(a):
    """Column-span basis and rank decision of one matrix, a map over (1)."""
    f = from_matrix(a)
    return f.image().column_bases[0], f.singular_data()


def kernel_basis(a):
    """Kernel basis and rank decision of one matrix, a map over (1)."""
    f = from_matrix(a)
    return f.kernel().column_bases[0], f.singular_data()


def op_norm(a):
    return np.linalg.norm(a, 2)


def complement(q):
    """Orthonormal basis of the orthogonal complement of span(q)."""
    return columns(q).complement().column_bases[0]


def projector(q):
    """Orthogonal projector onto span(q), q with orthonormal columns."""
    return q @ q.conj().T


def test_svd_data_reads_off_planted_spectrum():
    a = np.diag([3.0, 1.0, 1e-14])
    data = from_matrix(a).singular_data()
    assert data.rank == 2
    assert abs(data.gamma - 1.0) < 1e-12
    assert abs(data.smax - 3.0) < 1e-12
    assert data.margin > 0.1  # clean gap between 1.0 and 1e-14


def test_svd_data_zero_map_conventions():
    data = from_matrix(np.zeros((3, 2))).singular_data()
    assert data.rank == 0
    assert data.gamma == math.inf
    assert data.margin == math.inf


def test_image_and_kernel_split_dimensions(rng):
    a = rng.normal(size=(6, 5)) @ np.diag([1, 1, 1, 0, 0]) @ rng.normal(size=(5, 5))
    img, img_data = image_basis(a)
    ker, _ = kernel_basis(a)
    assert img.shape[1] == 3 and ker.shape[1] == 2
    assert img_data.rank == 3
    assert np.allclose(img.conj().T @ img, np.eye(3))
    assert np.allclose(ker.conj().T @ ker, np.eye(2))
    assert op_norm(a @ ker) < 1e-12


def test_complement_is_orthogonal_split(rng):
    q, _ = image_basis(rng.normal(size=(5, 2)))
    c = complement(q)
    assert c.shape == (5, 3)
    assert op_norm(q.conj().T @ c) < 1e-13
    assert np.allclose(projector(q) + projector(c), np.eye(5))


def test_principal_angle_matches_planted_tilt():
    # the residual singular values are the sines of the principal angles
    theta = 0.3
    a = tilted_plane(0.0)
    b = tilted_plane(theta)
    sines = _residual_values(a, b)
    assert abs(sines[-1]) < 1e-8
    assert abs(sines[0] - math.sin(theta)) < 1e-12


def test_subspace_equal_is_sine_based(rng):
    q, _ = image_basis(rng.normal(size=(6, 3)))
    # same span, different basis
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    line = AlgebraShape((1,))  # one 1 x 1 block: a submodule is a plain subspace
    same, turned = Submodule(line, 6, (q,)), Submodule(line, 6, (q @ u,))
    plane, tilted = (Submodule(line, 4, (tilted_plane(t),)) for t in (0.0, 1e-5))
    assert same.equals(turned) and same.equality_defect(turned) < 1e-12
    assert not plane.equals(tilted)
    tilted_defect = plane.equality_defect(tilted)
    assert abs(tilted_defect - math.sin(1e-5)) < 1e-9  # linear, not sqrt(eps)-floored


def test_intersection_recovers_shared_line():
    inter, gap = columns(tilted_plane(0.0)).intersection(columns(tilted_plane(0.3)))
    inter = inter.column_bases[0]
    assert inter.shape[1] == 1
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    assert abs(abs(np.vdot(inter[:, 0], e0)) - 1.0) < 1e-12
    assert gap > 0.1  # the 0.3-angle direction is clearly not shared


def test_sum_and_containment(tol):
    # the sum is the image of the stacked bases; containment is a vanishing
    # residual of the smaller span against the larger
    total = columns(tilted_plane(0.0)).add(columns(tilted_plane(0.3))).column_bases[0]
    assert total.shape[1] == 3
    inside = _residual_values(total, tilted_plane(0.0))
    outside = _residual_values(tilted_plane(0.0), total)
    assert inside[0] <= tol.angle_tol
    assert outside[0] > tol.angle_tol


def test_min_modulus_is_sine_of_gap_angle():
    theta = 0.3
    m = tilted_plane(0.0)[:, :1]  # span{e0}
    n = np.zeros((4, 1), dtype=complex)
    n[0, 0], n[1, 0] = math.cos(theta), math.sin(theta)
    assert abs(_residual_values(m, n)[-1] - math.sin(theta)) < 1e-12


def test_oblique_projector_idempotent_and_sliced(rng):
    onto, _ = image_basis(rng.normal(size=(6, 2)))
    along = complement(onto)
    # shear the complement so the projector is genuinely oblique
    along = along + 0.3 * onto @ rng.normal(size=(2, 4))
    along, _ = image_basis(along)
    p = oblique_decomposition(columns(onto), columns(along))
    e = realization(p.idempotent)
    assert op_norm(e @ e - e) < 1e-12
    assert op_norm(e @ onto - onto) < 1e-12
    assert op_norm(e @ along) < 1e-12
    assert p.norm >= 1.0 and not p.ill_posed


def test_oblique_projector_orthogonal_case_has_norm_one(rng):
    onto, _ = image_basis(rng.normal(size=(5, 3)))
    p = oblique_decomposition(columns(onto), columns(complement(onto)))
    assert abs(p.norm - 1.0) < 1e-12
    assert np.allclose(realization(p.idempotent), projector(onto))


def test_oblique_projector_rejects_non_complements(rng):
    onto, _ = image_basis(rng.normal(size=(5, 3)))
    with pytest.raises(UnmetHypothesisError):
        oblique_decomposition(columns(onto), columns(onto))  # dimensions wrong
    with pytest.raises(UnmetHypothesisError):
        # right dimension count, but shares span(onto) directions
        shared = np.hstack([onto[:, :1], complement(onto)[:, :1]])
        oblique_decomposition(columns(onto), columns(shared))


def test_chain_exactness_on_split_chain():
    # 0 -> C -> C^2 -> C -> 0 with inclusion then projection: exact everywhere
    inc = np.array([[1.0], [0.0]])
    proj = np.array([[0.0, 1.0]])
    nodes, inj, surj = chains_exactness([Grouped.of([inc]), Grouped.of([proj])])
    assert inj.tolist() == [0.0] and surj.tolist() == [0.0]
    assert len(nodes) == 1 and nodes[0][0] < 1e-14  # a rank mismatch would read 1.0


def test_chain_exactness_flags_homology():
    # zero maps: kernel is everything, image is nothing -> not exact
    z1 = np.zeros((2, 1))
    z2 = np.zeros((1, 2))
    nodes, inj, surj = chains_exactness([Grouped.of([z1]), Grouped.of([z2])])
    assert inj.tolist() == [1.0] and surj.tolist() == [1.0]
    # incoming rank 0 against an outgoing kernel of dimension 2
    assert nodes[0].tolist() == [1.0]


def test_chain_exactness_keeps_positions_apart():
    # one stack, three chains of one shape: the split chain, the zero one, and
    # a chain whose projection is tilted by 1e-3 and halved
    inc, proj = np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]])
    z1, z2 = np.zeros((2, 1)), np.zeros((1, 2))
    tilted = 0.5 * np.array([[math.sin(1e-3), math.cos(1e-3)]])
    nodes, inj, surj = chains_exactness(
        [Grouped.of([inc, z1, inc]), Grouped.of([proj, z2, tilted])]
    )
    assert nodes[0][0] < 1e-14 and nodes[0][1] == 1.0
    assert inj.tolist() == [0.0, 1.0, 0.0] and surj.tolist() == [0.0, 1.0, 0.0]
    # the one-direction node defect against the composition and both directions
    image, kernel = image_basis(inc)[0], kernel_basis(tilted)[0]
    two_sided = max(
        np.linalg.norm(tilted @ image, 2) / max(np.linalg.norm(tilted, 2), 1.0),
        np.linalg.norm(image - projector(kernel) @ image, 2),
        np.linalg.norm(kernel - projector(image) @ kernel, 2),
    )
    assert abs(nodes[0][2] - two_sided) <= 1e-15 and abs(two_sided - math.sin(1e-3)) < 1e-15


def test_chain_exactness_decomposes_each_map_once(svd_calls):
    # V_i = A_i + B_i, each map sends B_i onto A_(i+1) and kills A_i: exact
    a, b = [0, 1, 3, 1, 1, 1], [1, 3, 1, 1, 1, 0]
    maps = []
    for i in range(5):
        m = np.zeros((a[i + 1] + b[i + 1], a[i] + b[i]))
        m[: a[i + 1], a[i] :] = np.eye(b[i])
        maps.append(m)
    nodes, inj, surj = chains_exactness([Grouped.of([m]) for m in maps])
    assert [m.shape[1] for m in maps] + [maps[-1].shape[0]] == [x + y for x, y in zip(a, b)]
    assert inj.tolist() == [0.0] and surj.tolist() == [0.0]
    assert len(nodes) == 4 and all(n[0] < 1e-14 for n in nodes)
    assert sum(c.compute_uv for c in svd_calls) == len(maps)


@given(st.integers(0, 2**32 - 1))
def test_pythagoras_for_angles(seed):
    # For one-dimensional spans, cos^2 + sin^2 = 1 links the two routes:
    # principal cosine vs min-modulus of the residual.
    rng = np.random.default_rng(seed)
    m, _ = image_basis(rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1)))
    n, _ = image_basis(rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1)))
    c = abs(np.vdot(m[:, 0], n[:, 0]))  # principal cosine of two lines
    s = _residual_values(m, n)[-1]
    assert abs(c * c + s * s - 1.0) < 1e-10


@given(st.integers(0, 2**32 - 1))
def test_rank_decisions_agree_between_image_and_kernel(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, 4))
    a = rng.normal(size=(6, r)) @ rng.normal(size=(r, 5)) if r else np.zeros((6, 5))
    img, _ = image_basis(a)
    ker, _ = kernel_basis(a)
    assert img.shape[1] + ker.shape[1] == 5
    assert img.shape[1] == r
