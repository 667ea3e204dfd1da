"""Finite-dimensional C*-algebras as block-diagonal complex matrices.

An algebra is a direct sum of full matrix blocks; an element is one
complex matrix per block.  The norm is the largest block operator norm,
the involution is the blockwise conjugate transpose, and the product is
blockwise matrix multiplication — which makes the C*-identity
``norm(a* a) == norm(a)**2`` exact up to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError
from .subspace import Grouped, _partition, _top_singular, as_complex

Array = np.ndarray

__all__ = ["AlgebraShape", "AlgebraElement"]


def _frozen(a: Array) -> Array:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


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


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One complex matrix per block; immutable."""

    shape: AlgebraShape
    blocks: tuple[Array, ...]

    def __post_init__(self):
        if len(self.blocks) != self.shape.num_blocks:
            raise StructureError(
                f"expected {self.shape.num_blocks} blocks, got {len(self.blocks)}"
            )
        frozen = []
        for n, blk in zip(self.shape.block_sizes, self.blocks):
            blk = as_complex(blk)
            if blk.shape != (n, n):
                raise StructureError(f"block of size {blk.shape}, expected ({n},{n})")
            frozen.append(_frozen(blk))
        object.__setattr__(self, "blocks", tuple(frozen))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.zeros((n, n)) for n in shape.block_sizes))

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.eye(n) for n in shape.block_sizes))

    # -- arithmetic ----------------------------------------------------

    def _check_same(self, other: "AlgebraElement"):
        if self.shape != other.shape:
            raise StructureError(f"algebra mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.shape, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.shape, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, other):
        """Algebra product (blockwise matrix product) or scalar scaling."""
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return AlgebraElement(
                self.shape, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
            )
        return AlgebraElement(self.shape, tuple(other * a for a in self.blocks))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(scalar * a for a in self.blocks))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, tuple(-a for a in self.blocks))

    def adjoint(self) -> "AlgebraElement":
        """Blockwise conjugate transpose (the C* involution)."""
        return AlgebraElement(self.shape, tuple(a.conj().T for a in self.blocks))

    # -- metrics -------------------------------------------------------

    def norm(self) -> float:
        """C*-norm: max over blocks of the spectral norm."""
        return _top_singular(Grouped.of(self.blocks))

    def allclose(self, other: "AlgebraElement", atol: float = 1e-12) -> bool:
        self._check_same(other)
        return all(np.allclose(a, b, atol=atol) for a, b in zip(self.blocks, other.blocks))

    def is_zero(self, atol: float = 0.0) -> bool:
        return all(np.max(np.abs(a)) <= atol if a.size else True for a in self.blocks)

    def dense(self) -> Array:
        """Block-diagonal complex matrix (oracle for norms/spectra)."""
        d = sum(self.shape.block_sizes)
        out = np.zeros((d, d), dtype=np.complex128)
        off = 0
        for n, blk in zip(self.shape.block_sizes, self.blocks):
            out[off : off + n, off : off + n] = blk
            off += n
        return out

    def __repr__(self) -> str:
        return f"AlgebraElement(shape={self.shape}, norm={self.norm():.3g})"
