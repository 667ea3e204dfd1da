"""Finite-dimensional C*-algebras as block-diagonal complex matrices.

An algebra A is a direct sum of full matrix blocks, and
:class:`AlgebraShape` is the tuple of their sizes.  An element is one
complex matrix per block, and the library holds it as a map over A^1
(``AdjointableMap(shape, 1, 1, blocks)``): the product is composition,
the involution is the adjoint (the blockwise conjugate transpose) and the
norm is the largest block operator norm, which makes the C*-identity
``norm(a* a) == norm(a)**2`` exact up to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError
from .subspace import Grouped, _partition

Array = np.ndarray

__all__ = ["AlgebraShape"]


@dataclass(frozen=True)
class AlgebraShape:
    """Block sizes of a direct sum of full matrix algebras."""

    block_sizes: tuple[int, ...]
    # Complex dimension, the sum of squared block sizes: summed once here,
    # since rank cutoffs read it on every decision.
    dim: int = field(init=False, repr=False, compare=False)
    # The ascending positions of each block size: every map over the shape
    # stores one stack of blocks per size, on this one tuple of groups.
    size_groups: tuple[Array, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.block_sizes)
        if len(sizes) == 0:
            raise StructureError("an algebra needs at least one block")
        if any(n < 1 for n in sizes):
            raise StructureError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "dim", sum(n * n for n in sizes))
        groups = tuple(np.array(idx) for idx in _partition(sizes))
        object.__setattr__(self, "size_groups", groups)

    def stacks(self, make) -> Grouped:
        """One stack per block size, ``make(n_b, positions)``, covering every block."""
        idxs = [idx.tolist() for idx in self.size_groups]
        return Grouped([make(self.block_sizes[idx[0]], idx) for idx in idxs], self.size_groups)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def __str__(self) -> str:
        return "(" + ",".join(str(n) for n in self.block_sizes) + ")"
