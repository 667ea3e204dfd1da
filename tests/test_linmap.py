"""Adjointable maps checked against their dense flat realizations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modop.algebra import AlgebraElement, AlgebraShape
from modop.errors import DataError, StructureError
from modop.fredholm import fredholm_report
from modop.linmap import AdjointableMap
from modop.modules import ModuleVector, flat_dim
from modop.randgen import (
    random_element,
    random_endomorphism,
    random_map,
    random_submodule,
    random_vector_flat,
)

from flat_oracle import flat_basis, from_matrix, realization
from map_oracle import orthogonal_projection


def test_from_entries_roundtrip(shape23, rng):
    rows = [[random_element(shape23, rng) for _ in range(2)] for _ in range(3)]
    f = AdjointableMap.from_entries(rows)
    assert (f.m, f.n) == (2, 3)
    for i in range(3):
        for j in range(2):
            assert f.entry(i, j).allclose(rows[i][j])


def test_left_multiplication_map(shape23, rng):
    a = random_element(shape23, rng)
    f = AdjointableMap.from_entries([[a]])
    x = ModuleVector.from_flat(shape23, 1, random_vector_flat(shape23, 1, rng))
    assert f.apply(x).entries[0].allclose(a * x.entries[0])
    # realization is the Kronecker lift of the element blocks
    expected = np.zeros_like(realization(f))
    off = 0
    for nb, blk in zip(shape23.block_sizes, a.blocks):
        expected[off : off + nb * nb, off : off + nb * nb] = np.kron(blk, np.eye(nb))
        off += nb * nb
    assert np.allclose(realization(f), expected)


def test_apply_matches_realization(shape23, rng):
    f = random_map(shape23, 3, 2, rng)
    x = random_vector_flat(shape23, 3, rng)
    v = ModuleVector.from_flat(shape23, 3, x)
    assert np.allclose(f.apply(v).flatten(), realization(f) @ x)


def test_composition_and_adjoint_realizations(shape23, rng):
    f = random_map(shape23, 3, 2, rng)
    g = random_map(shape23, 2, 3, rng)
    assert np.allclose(realization(g @ f), realization(g) @ realization(f))
    assert np.allclose(realization(f.adjoint()), realization(f).conj().T)
    assert np.allclose(realization(f + f), 2 * realization(f))
    assert np.allclose(realization(-f), -realization(f))
    assert np.allclose(realization(2j * f), 2j * realization(f))


def test_power_is_iterated_matmul(shape23, rng):
    f = random_endomorphism(shape23, 2, rng)
    assert f.power(0).allclose(AdjointableMap.identity(shape23, 2))
    assert np.allclose(realization(f.power(3)), np.linalg.matrix_power(realization(f), 3))


def test_power_does_not_square_past_the_last_bit():
    f = from_matrix(1e200 * np.eye(2))
    with np.errstate(all="raise"):
        p = f.power(1)
    assert np.array_equal(p.blocks[0], f.blocks[0])


def test_norm_equals_realization_norm(shape23, rng):
    f = random_map(shape23, 3, 2, rng)
    assert abs(f.norm() - np.linalg.norm(realization(f), 2)) < 1e-12


def test_singular_values_lift_with_multiplicity(shape23, rng):
    f = random_map(shape23, 2, 2, rng)
    lifted = []
    for nb, c in zip(shape23.block_sizes, f.blocks):
        lifted.extend(np.repeat(np.linalg.svd(c, compute_uv=False), nb))
    real = np.linalg.svd(realization(f), compute_uv=False)
    assert np.allclose(np.sort(lifted), np.sort(real))
    # so the merged minimum modulus is the flat one
    data = f.singular_data()
    positive = real[real > 1e-10]
    assert abs(data.gamma - positive.min()) < 1e-12


def test_kernel_image_rank_nullity(shape23, rng):
    f = random_map(shape23, 3, 2, rng, rank_deficit=1)
    ker, img = f.kernel(), f.image()
    assert (ker.k0() + img.k0()).entries == tuple(3 * nb for nb in shape23.block_sizes)
    assert ker.dim + img.dim == flat_dim(shape23, 3)
    assert np.linalg.norm(realization(f) @ flat_basis(ker)) < 1e-9
    # rank deficit planted per block
    assert img.k0().entries == tuple(2 * nb - 1 for nb in shape23.block_sizes)


def test_image_contains_applied_vectors(shape23, rng):
    f = random_map(shape23, 3, 2, rng)
    img = f.image()
    for _ in range(3):
        y = realization(f) @ random_vector_flat(shape23, 3, rng)
        q = flat_basis(img)
        resid = y - q @ (q.conj().T @ y)
        assert np.linalg.norm(resid) < 1e-9 * np.linalg.norm(y)


def test_apply_to_submodule_of_full_is_image(shape23, rng):
    from modop.modules import Submodule

    f = random_map(shape23, 2, 3, rng, rank_deficit=1)
    moved, _ = f.image_step(Submodule.full(shape23, 2))
    assert moved.equals(f.image())


def test_orthogonal_projection_map(shape23, rng):
    sub = random_submodule(shape23, 3, rng)
    p = orthogonal_projection(sub)
    assert (p @ p).allclose(p)
    assert p.adjoint().allclose(p)
    assert p.image().equals(sub)


def _read_decided(f: AdjointableMap) -> AdjointableMap:
    """Read everything of F's one record twice, a decision first."""
    for _ in range(2):
        f.kernel(), f.norm(), f.image(), f.cokernel(), f.singular_data()
        if f.is_endomorphism:
            f.power_chain().kernel(1)
    return f


def test_each_map_is_decomposed_once(shape23, rng, svd_calls):
    for m, n in ((3, 2), (3, 3)):
        f, g = (random_map(shape23, m, n, rng, rank_deficit=1) for _ in range(2))
        svd_calls.clear()
        # a decided map and its adjoint: one full SVD per group between them
        fs = _read_decided(_read_decided(f).adjoint())
        stacks = f.groups.stacks + fs.groups.stacks
        own = [c for c in svd_calls if any(np.array_equal(c.a, s) for s in stacks)]
        assert len(own) == len(f.groups.stacks) and all(c.compute_uv for c in svd_calls)
        assert fs.norm() == f.norm()
        # a norm read alone: one values-only SVD per group, however often
        svd_calls.clear()
        for _ in range(3):
            g.norm()
        assert [call.compute_uv for call in svd_calls] == [False] * len(g.groups.stacks)


def _count_decisions(monkeypatch) -> list[int]:
    calls = [0]
    merged = AdjointableMap._merged

    def counting(*args, **kwargs):
        calls[0] += 1
        return merged(*args, **kwargs)

    monkeypatch.setattr(AdjointableMap, "_merged", counting)
    return calls


def test_each_map_decides_once_per_tolerance_and_scale(shape23, rng, monkeypatch):
    f = random_map(shape23, 3, 2, rng, rank_deficit=1)
    calls = _count_decisions(monkeypatch)
    # no scale means the scale norm(): one decision serves all five reads
    f.kernel(), f.image(), f.cokernel(), f.singular_data(), f.kernel(scale=f.norm())
    assert calls[0] == 1
    f.kernel(scale=2 * f.norm())
    assert calls[0] == 2


def test_fredholm_report_reads_the_power_chain_decision(shape23, rng, monkeypatch):
    f = random_endomorphism(shape23, 3, rng, nilpotent=(2, 1))
    f.power_chain().split
    calls = _count_decisions(monkeypatch)
    fredholm_report(f)
    assert calls[0] == 0


def test_from_matrix_trivial_algebra(rng):
    mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    f = from_matrix(mat)
    assert f.shape == AlgebraShape((1,))
    assert np.allclose(realization(f), mat)


def test_shape_validation(shape23):
    with pytest.raises(StructureError):
        AdjointableMap(shape23, 2, 2, (np.eye(4),))  # missing second block
    with pytest.raises(StructureError):
        AdjointableMap(shape23, 2, 2, (np.eye(3), np.eye(6)))  # wrong block shape
    with pytest.raises(StructureError):
        from_matrix(np.zeros((0, 2)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
def test_nonfinite_entries_rejected(shape23, bad):
    mat = np.eye(3, dtype=complex)
    mat[2, 1] = bad
    with pytest.raises(DataError):
        from_matrix(mat)
    one = AlgebraElement.identity(shape23)
    blocks = [np.eye(2, dtype=complex), np.eye(3, dtype=complex)]
    blocks[1][2, 0] = bad
    with pytest.raises(DataError):
        AdjointableMap.from_entries([[one, AlgebraElement(shape23, tuple(blocks))]])


@given(st.integers(0, 2**32 - 1))
def test_adjoint_flips_inner_products(seed):
    # <f x, y> = <x, f* y> block by block
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((2,))
    f = random_map(shape, 2, 3, rng)
    from modop.modules import inner_product

    x = ModuleVector.from_flat(shape, 2, random_vector_flat(shape, 2, rng))
    y = ModuleVector.from_flat(shape, 3, random_vector_flat(shape, 3, rng))
    lhs = inner_product(f.apply(x), y)
    rhs = inner_product(x, f.adjoint().apply(y))
    assert lhs.allclose(rhs)


@given(st.integers(0, 2**32 - 1))
def test_kernel_is_adjoint_image_complement(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((2, 1))
    f = random_map(shape, 2, 2, rng, rank_deficit=1)
    ker = f.kernel()
    im_star = f.adjoint().image()
    assert ker.equals(im_star.complement())
    # the coimage is read off F's own record, under the decision that sets ker F
    assert f.coimage().equals(im_star) and f.coimage().k0() == ker.complement().k0()
