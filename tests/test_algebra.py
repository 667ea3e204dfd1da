"""Block-algebra arithmetic: an element of A is a map over A^1, checked
against per-block and dense block-diagonal oracles."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from modop.algebra import AlgebraShape
from modop.errors import StructureError
from modop.linmap import AdjointableMap

from element_oracle import random_element

import pytest


def element(shape, rng):
    """A random element of A as the library holds it: a map A^1 -> A^1."""
    blocks = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in shape.block_sizes]
    return AdjointableMap(shape, 1, 1, tuple(blocks))


def test_shape_basics():
    shape = AlgebraShape((2, 3))
    assert shape.num_blocks == 2
    assert shape.dim == 4 + 9
    assert str(shape) == "(2,3)"


def test_shape_rejects_empty_and_nonpositive():
    with pytest.raises(StructureError):
        AlgebraShape(())
    with pytest.raises(StructureError):
        AlgebraShape((2, 0))


def test_block_count_checked():
    shape = AlgebraShape((2, 3))
    with pytest.raises(StructureError):
        AdjointableMap(shape, 1, 1, (np.eye(2),))
    with pytest.raises(StructureError):
        AdjointableMap(shape, 1, 1, (np.eye(2), np.eye(2)))


def test_identity_is_multiplicative_unit(rng):
    shape = AlgebraShape((2, 3))
    a = element(shape, rng)
    e = AdjointableMap.identity(shape, 1)
    assert (a @ e).allclose(a)
    assert (e @ a).allclose(a)


def test_dense_embedding_is_multiplicative(rng):
    # the element oracle's block-diagonal form
    shape = AlgebraShape((2, 3))
    a, b = random_element(shape, rng), random_element(shape, rng)
    assert np.allclose((a * b).dense(), a.dense() @ b.dense())
    assert np.allclose((a + b).dense(), a.dense() + b.dense())
    assert np.allclose((2.5j * a).dense(), 2.5j * a.dense())


def test_adjoint_reverses_products(rng):
    shape = AlgebraShape((2, 3))
    a, b = element(shape, rng), element(shape, rng)
    assert (a @ b).adjoint().allclose(b.adjoint() @ a.adjoint())
    assert a.adjoint().adjoint().allclose(a)


def test_norm_is_largest_block_norm(rng):
    shape = AlgebraShape((2, 3))
    a = element(shape, rng)
    oracle = max(np.linalg.norm(blk, 2) for blk in a.blocks)
    assert abs(a.norm() - oracle) < 1e-12
    # C* identity: ||a* a|| = ||a||^2
    assert abs((a.adjoint() @ a).norm() - a.norm() ** 2) < 1e-10 * a.norm() ** 2


@given(st.integers(0, 2**32 - 1))
def test_scalar_action_distributes(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((2,))
    a, b = element(shape, rng), element(shape, rng)
    lhs = 3.0 * (a + b)
    rhs = 3.0 * a + 3.0 * b
    assert lhs.allclose(rhs)


def test_blocks_are_immutable():
    shape = AlgebraShape((2,))
    a = AdjointableMap.identity(shape, 1)
    with pytest.raises(ValueError):
        a.blocks[0][0, 0] = 7.0
