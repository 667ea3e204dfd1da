"""Free-module layer: flat layout, algebra-valued inner products, submodule lattice."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modop.algebra import AlgebraShape
from modop.errors import StructureError
from modop.modules import K0Class, Submodule, flat_dim
from modop.randgen import parse_shape, random_submodule

from element_oracle import (
    AlgebraElement,
    ModuleVector,
    basis_vectors,
    inner_product,
    random_element,
    random_vector_flat,
    span_vectors,
)
from flat_oracle import flat_basis, invariance_residual


def random_vector(shape, m, rng):
    return ModuleVector.from_flat(shape, m, random_vector_flat(shape, m, rng))


# --------------------------------------------------------------------------
# vectors and the flat embedding


def test_flat_dim_counts_matrix_entries():
    shape = AlgebraShape((2, 3))
    assert flat_dim(shape, 4) == 4 * (4 + 9)


def test_flat_roundtrip(shape23, rng):
    v = random_vector(shape23, 3, rng)
    w = ModuleVector.from_flat(shape23, 3, v.flatten())
    assert all(a.allclose(b) for a, b in zip(v.entries, w.entries))
    # and starting from coordinates
    x = random_vector_flat(shape23, 3, rng)
    assert np.allclose(ModuleVector.from_flat(shape23, 3, x).flatten(), x)


def test_generator_has_identity_in_one_slot(shape23):
    g = ModuleVector.generator(shape23, 3, 1)
    assert g.entries[1].allclose(AlgebraElement.identity(shape23))
    assert g.entries[0].allclose(AlgebraElement.zero(shape23))
    assert abs(g.norm() - 1.0) < 1e-14


def test_inner_product_is_tall_gram(shape23, rng):
    x, y = random_vector(shape23, 3, rng), random_vector(shape23, 3, rng)
    ip = inner_product(x, y)
    for b in range(shape23.num_blocks):
        assert np.allclose(ip.blocks[b], x.tall(b).conj().T @ y.tall(b))


def test_inner_product_trace_is_flat_dot(shape23, rng):
    # summing the block traces of <x, y> collapses the module pairing to the
    # plain euclidean one on flat coordinates
    x, y = random_vector(shape23, 2, rng), random_vector(shape23, 2, rng)
    traces = sum(np.trace(blk) for blk in inner_product(x, y).blocks)
    assert abs(traces - np.vdot(x.flatten(), y.flatten())) < 1e-12


def test_inner_product_respects_right_action(shape23, rng):
    x, y = random_vector(shape23, 2, rng), random_vector(shape23, 2, rng)
    a = random_element(shape23, rng)
    assert inner_product(x, y.right_mul(a)).allclose(inner_product(x, y) * a)
    assert inner_product(x.right_mul(a), y).allclose(a.adjoint() * inner_product(x, y))


def test_module_norm_oracle(shape23, rng):
    x = random_vector(shape23, 3, rng)
    oracle = max(np.linalg.norm(x.tall(b), 2) for b in range(shape23.num_blocks))
    assert abs(x.norm() - oracle) < 1e-12
    assert x.norm() <= np.linalg.norm(x.flatten()) + 1e-12


def test_vector_shape_validation(shape23):
    with pytest.raises(StructureError):
        ModuleVector(shape23, 2, (AlgebraElement.identity(shape23),))
    with pytest.raises(StructureError):
        ModuleVector.from_flat(shape23, 2, np.zeros(5))


# --------------------------------------------------------------------------
# K0 arithmetic


def test_k0_arithmetic():
    a, b = K0Class((2, 0)), K0Class((1, 3))
    assert (a + b).entries == (3, 3)
    assert (a - b).entries == (1, -3)
    assert (-b).entries == (-1, -3)
    assert K0Class.zero(2).is_zero()
    assert (a - b).positive_part().entries == (1, 0)
    assert str(a - b) == "[1,-3]"


def test_free_class_counts_columns(shape23):
    assert K0Class.free(shape23, 3).entries == (6, 9)
    assert Submodule.full(shape23, 3).k0() == K0Class.free(shape23, 3)
    assert Submodule.full(shape23, 3).dim == 3 * (4 + 9)


# --------------------------------------------------------------------------
# submodules


def test_span_closes_under_action(shape23, rng):
    vecs = [random_vector(shape23, 3, rng) for _ in range(2)]
    sub = span_vectors(vecs)
    assert invariance_residual(sub.shape, sub.m, flat_basis(sub)) < 1e-10
    # every generator stays inside
    for v in vecs:
        a = random_element(shape23, rng)
        moved = span_vectors([v.right_mul(a)])
        assert sub.contains(moved)[0]


def test_single_flat_vector_is_not_a_submodule(shape23, rng):
    mat = random_vector_flat(shape23, 2, rng)[:, None]
    assert invariance_residual(shape23, 2, mat / np.linalg.norm(mat)) > 0.1
    # the closure itself is fine and strictly larger
    sub = span_vectors([ModuleVector.from_flat(shape23, 2, mat)])
    assert sub.dim > 1
    assert invariance_residual(shape23, 2, flat_basis(sub)) < 1e-10


@pytest.mark.parametrize("ranks", [(1, 2), (0, 3), (2, 0)])
def test_basis_vectors_are_the_flat_oracle_basis(shape23, rng, ranks):
    sub = random_submodule(shape23, 3, rng, ranks=ranks)
    vecs = basis_vectors(sub)
    assert len(vecs) == sub.dim
    assert np.array_equal(np.column_stack([v.flatten() for v in vecs]), flat_basis(sub))


@pytest.mark.parametrize("shape_text, ranks", [("2,3", (1, 2)), ("2,3", (0, 3)), ("1^4", (1, 0, 2, 1))])
def test_sampled_talls_match_flat_oracle_sampling(shape_text, ranks):
    # the tall forms W_b C_b of the sampled coefficients are the same draws
    # taken as coefficients on the flat oracle basis, reshaped per block
    shape = parse_shape(shape_text)
    sub = random_submodule(shape, 3, np.random.default_rng(1), ranks=ranks)
    count = 7
    coeffs = sub.sample_coefficients(np.random.default_rng(2), count)
    q = flat_basis(sub)
    rng = np.random.default_rng(2)
    flats = q @ (rng.normal(size=(q.shape[1], count)) + 1j * rng.normal(size=(q.shape[1], count)))
    off = 0
    for nb, w, c in zip(shape.block_sizes, sub.column_bases, coeffs):
        seg = 3 * nb * nb
        assert c.shape == (w.shape[1], nb, count)
        talls = np.stack([w @ c[:, :, s] for s in range(count)])
        assert np.allclose(talls, flats[off : off + seg].T.reshape(count, 3 * nb, nb), atol=1e-14)
        off += seg


def test_complement_decomposes_ambient(shape23, rng):
    sub = random_submodule(shape23, 3, rng)
    comp = sub.complement()
    inter, _ = sub.intersection(comp)
    assert inter.k0().is_zero()
    assert sub.add(comp).equals(Submodule.full(shape23, 3))
    assert sub.dim + comp.dim == flat_dim(shape23, 3)


def test_sum_intersection_dimension_identity(shape23, rng):
    for _ in range(5):
        a = random_submodule(shape23, 4, rng)
        b = random_submodule(shape23, 4, rng)
        total, (inter, _) = a.add(b), a.intersection(b)
        assert (total.k0() + inter.k0()).entries == (a.k0() + b.k0()).entries
        assert total.contains(a)[0] and total.contains(b)[0]
        assert a.contains(inter)[0] and b.contains(inter)[0]


def test_planted_intersection_is_recovered(shape23, rng):
    # build two submodules sharing an explicitly planted part
    shared = random_submodule(shape23, 4, rng, ranks=(1, 1))
    a = shared.add(random_submodule(shape23, 4, rng, ranks=(1, 0)))
    b = shared.add(random_submodule(shape23, 4, rng, ranks=(0, 2)))
    inter, _ = a.intersection(b)
    assert inter.contains(shared)[0]
    assert inter.k0().entries == shared.k0().entries  # generic extras don't overlap


def test_contains_and_equals(shape23, rng):
    small = random_submodule(shape23, 3, rng, ranks=(1, 2))
    big = small.add(random_submodule(shape23, 3, rng, ranks=(1, 1)))
    assert big.contains(small)[0]
    assert not small.contains(big)[0]
    assert not big.equals(small)
    assert big.equals(big.complement().complement())
    assert small.equality_defect(small) < 1e-12


def test_basis_that_is_not_orthonormal_is_refused():
    # read as a basis, two columns of one line would count dim 2, and the
    # complement of their span another 2, in C^3
    bases = ([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],)
    with pytest.raises(StructureError, match=r"block 0 is not orthonormal"):
        Submodule(AlgebraShape((1,)), 3, bases)
    with pytest.raises(StructureError, match=r"block 1 is not orthonormal"):
        Submodule(AlgebraShape((1, 1)), 1, ([[1.0]], [[float("nan")]]))
    line = Submodule(AlgebraShape((1,)), 3, ([[0.6], [0.8j], [0.0]],))
    assert (line.dim, line.complement().dim) == (1, 2)


def test_zero_submodule_conventions(shape23):
    z = Submodule.zero(shape23, 2)
    assert z.dim == 0
    assert z.k0().is_zero()
    assert invariance_residual(shape23, 2, flat_basis(z)) == 0.0
    assert Submodule.full(shape23, 2).contains(z)[0]


@given(st.integers(0, 2**32 - 1))
def test_lattice_identity_holds_generically(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((2,))
    a, b = random_submodule(shape, 3, rng), random_submodule(shape, 3, rng)
    total, (inter, _) = a.add(b), a.intersection(b)
    assert total.dim + inter.dim == a.dim + b.dim


@given(st.integers(0, 2**32 - 1))
def test_span_invariant_under_action_generically(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((2, 1))
    v = ModuleVector.from_flat(shape, 2, random_vector_flat(shape, 2, rng))
    sub = span_vectors([v])
    assert invariance_residual(sub.shape, sub.m, flat_basis(sub)) < 1e-10
    a = random_element(shape, rng)
    assert sub.contains(span_vectors([v.right_mul(a)]))[0]
