"""Free modules over a block algebra, their submodules, and K0 classes.

A vector in the free module of rank ``m`` is an m-tuple of algebra
elements with the algebra-valued inner product ``<x, y> = sum_i x_i* y_i``.
Per block b it is its tall form: the m entry blocks stacked into one
(m*n_b) x n_b matrix, on which a map's compressed block acts.  No module
holds a vector object: vectors live as the columns of those tall forms,
in bases, in sampled coefficients and in the rows of submodule files.

The key structural fact the code leans on: a subspace closed under the
right algebra action decomposes per block as (column space) x (column
positions).  A submodule is therefore one orthonormal column basis per
block — its K0 class is just the tuple of those basis sizes, so every
K-theory statement downstream reduces to integer arithmetic on ranks
decided per block, and random vectors are sampled as coefficients on
those bases, never as tall forms.  The bases are stored as one read-only
stack per (ambient, width) (a :class:`~modop.subspace.Grouped`), like a
map's blocks, so the dimension, the class and the lattice operations
(meets, complements) run per group; ``column_bases`` holds per-block
views for I/O, reports and the test oracles.

Submodule files are read and written per group too: ``modop.serialize``
spans the vectors' tall forms side by side, one stack per block size, and
writes a submodule's basis vectors with one float view per group.
Flat coordinates (every entry block raveled, blocks in order, chosen so
the standard inner product equals the trace of the algebra-valued one)
serve only the test oracles; the library reads only their count,
:func:`flat_dim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraShape
from .errors import StructureError
from .subspace import (
    Grouped,
    _eyes,
    _meets,
    _side_by_side,
    _spans,
    _stickout,
    herm,
    stacked,
)
from .tolerances import DEFAULT_TOL, ORTHONORMAL_TOL, ToleranceConfig

Array = np.ndarray

__all__ = ["K0Class", "Submodule", "flat_dim"]


# ---------------------------------------------------------------------------
# flat coordinates


def flat_dim(shape: AlgebraShape, m: int) -> int:
    """Complex dimension of the rank-m free module."""
    return m * shape.dim


# ---------------------------------------------------------------------------
# K0 classes


@dataclass(frozen=True)
class K0Class:
    """Integer vector, one entry per block; the K0 datum of a submodule.

    Entries may be negative when the class represents a formal
    difference (e.g. a Fredholm index).
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @classmethod
    def zero(cls, k: int) -> "K0Class":
        return cls((0,) * k)

    @classmethod
    def free(cls, shape: AlgebraShape, m: int) -> "K0Class":
        """Class of the rank-m free module: m * n_b in block b."""
        return cls(tuple(m * n for n in shape.block_sizes))

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "K0Class":
        return K0Class(tuple(-a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def positive_part(self) -> "K0Class":
        return K0Class(tuple(max(0, a) for a in self.entries))

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


# ---------------------------------------------------------------------------
# submodules


@dataclass(frozen=True, eq=False)
class Submodule:
    """A subspace of the free module closed under the right algebra action.

    Block b's component is exactly (the span of an orthonormal column
    basis of C^(m n_b)) x (all column positions), so its complex
    dimension is n_b times the basis width.  ``groups`` holds the bases as
    one stack per (ambient, width); ``column_bases[b]`` is a read-only view
    of block b's.  The constructor checks the per-block bases (or those of a
    :class:`~modop.subspace.Grouped`) passed in, row counts and orthonormality
    to ``ORTHONORMAL_TOL``, and copies them once per shape; lattice operations
    own their fresh result stacks (:meth:`_of_groups`), unchecked.
    """

    shape: AlgebraShape
    m: int
    groups: Grouped

    def __post_init__(self):
        bases = self.groups.mats if isinstance(self.groups, Grouped) else self.groups
        if len(bases) != self.shape.num_blocks:
            raise StructureError("one column basis per block required")
        for n, w in zip(self.shape.block_sizes, bases):
            if np.shape(w)[0] != self.m * n:
                raise StructureError(f"column basis rows {np.shape(w)[0]} != {self.m}*{n}")
        groups = Grouped.of(bases, complex)
        for w, idx in zip(groups.stacks, groups.members):
            defect = np.abs(herm(w) @ w - np.eye(w.shape[-1])).max(axis=(1, 2), initial=0)
            bad = np.flatnonzero(~(defect <= ORTHONORMAL_TOL))  # nan included
            if bad.size:
                raise StructureError(f"column basis of block {idx[bad[0]]} is not "
                                     f"orthonormal (max |W^H W - I| = {defect[bad[0]]:.3e})")
        object.__setattr__(self, "groups", groups.frozen())

    @classmethod
    def _of_groups(cls, shape: AlgebraShape, m: int, groups: Grouped) -> "Submodule":
        """A submodule owning fresh basis stacks (results of stacked work):
        no copy and no check."""
        out = cls.__new__(cls)
        out.__dict__.update(shape=shape, m=m, groups=groups.frozen())
        return out

    @cached_property
    def column_bases(self) -> tuple[Array, ...]:
        return self.groups.mats

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, shape: AlgebraShape, m: int) -> "Submodule":
        zeros = shape.stacks(lambda n, idx: np.zeros((len(idx), m * n, 0), complex))
        return cls._of_groups(shape, m, zeros)

    @classmethod
    def full(cls, shape: AlgebraShape, m: int) -> "Submodule":
        return cls._of_groups(shape, m, shape.stacks(lambda n, idx: _eyes(len(idx), m * n)))

    # -- basic data -------------------------------------------------------

    @property
    def dim(self) -> int:
        """Complex dimension: n_b times the width, summed over blocks."""
        return sum(w.size for w in self.groups.stacks) // self.m

    @property
    def ambient_dim(self) -> int:
        return flat_dim(self.shape, self.m)

    def k0(self) -> K0Class:
        return K0Class(tuple(self.groups.sizes(-1)))

    # -- lattice operations -------------------------------------------------

    def _check_ambient(self, other: "Submodule"):
        if self.shape != other.shape or self.m != other.m:
            raise StructureError("submodules live in different modules")

    def equals(self, other: "Submodule", tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Same class, and a worst sine of at most ``tol.angle_tol``."""
        return self.equality_defect(other) <= tol.angle_tol

    def equality_defect(self, other: "Submodule") -> float:
        """Worst sine between corresponding blocks (+inf on dimension mismatch),
        measured by a projection defect: near zero angle a principal cosine
        is quadratically insensitive and would report sqrt(eps) noise.  The
        widths agree per block, so ||(I - P_A) Q_B|| = ||(I - P_B) Q_A|| is
        the sine of the largest principal angle (Golub & Van Loan, *Matrix
        Computations*, Thm 2.5.1): one direction suffices."""
        self._check_ambient(other)
        if self.groups.sizes(-1) != other.groups.sizes(-1):
            return math.inf
        return _stickout(self.groups, other.groups)

    def contains(self, other: "Submodule", tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
        self._check_ambient(other)
        widths = zip(self.groups.sizes(-1), other.groups.sizes(-1))
        if any(big == 0 < small for big, small in widths):
            return False, 1.0
        worst = _stickout(self.groups, other.groups)
        return worst <= tol.angle_tol, worst

    def complement(self) -> "Submodule":
        """Orthogonal complement (a submodule, since the action is *-closed):
        per block the kernel of W^H, decided at unit scale."""
        bases = _spans(self.groups.map(herm), DEFAULT_TOL, scale=1.0, kernel=True)
        return Submodule._of_groups(self.shape, self.m, bases)

    def intersection(self, other: "Submodule") -> tuple["Submodule", float]:
        """Intersection plus the worst cosine gap behind the decisions."""
        self._check_ambient(other)
        bases, gaps = _meets(self.groups, other.groups)
        return Submodule._of_groups(self.shape, self.m, bases), min(gaps.tolist())

    def add(self, other: "Submodule", tol: ToleranceConfig = DEFAULT_TOL) -> "Submodule":
        self._check_ambient(other)
        spans = stacked(_side_by_side, self.groups, other.groups)
        return Submodule._of_groups(self.shape, self.m, _spans(spans, tol, scale=1.0))

    def sample_coefficients(self, rng: np.random.Generator, count: int = 1) -> list[Array]:
        """Random vectors inside the submodule, per block as the
        (k_b, n_b, count) coefficients C_b of their tall forms W_b C_b.

        The gaussian coefficients are drawn as one (dim, count) array whose
        rows run in (block b, column j, position t) order, the order of
        the basis vectors a submodule file lists, so block b's rows
        reshape to the C_b of all samples at once.  W_b has orthonormal columns, so
        every norm of W_b C_b is that of C_b: the tall forms are never built.
        """
        sizes, ks = self.shape.block_sizes, self.k0().entries
        coeff = rng.normal(size=(self.dim, count)) + 1j * rng.normal(size=(self.dim, count))
        parts = np.split(coeff, np.cumsum([k * n for k, n in zip(ks, sizes)])[:-1])
        return [c.reshape(k, n, count) for c, k, n in zip(parts, ks, sizes)]

    def __repr__(self) -> str:
        return f"Submodule(shape={self.shape}, m={self.m}, k0={self.k0()})"
