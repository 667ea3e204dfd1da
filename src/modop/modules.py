"""Free modules over a block algebra, their submodules, and K0 classes.

A vector in the free module of rank ``m`` is an m-tuple of algebra
elements with the algebra-valued inner product ``<x, y> = sum_i x_i* y_i``.
Per block b its numerics run on the tall form: the m entry blocks stacked
into one (m*n_b) x n_b matrix.

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

Submodule files are read per block too: ``modop.serialize`` spans the
vectors' tall forms side by side, one stack per size group.
Flat coordinates (every entry block raveled, blocks in order, chosen so
the standard inner product equals the trace of the algebra-valued one)
serve only the test oracles: ``ModuleVector.from_flat``/``flatten``,
``block_layout`` and the dense flat basis of a submodule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import StructureError
from .subspace import (
    Grouped,
    _eyes,
    _meets,
    _side_by_side,
    _spans,
    _stickout,
    as_complex,
    herm,
    stacked,
)
from .tolerances import DEFAULT_TOL, ORTHONORMAL_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "K0Class",
    "ModuleVector",
    "Submodule",
    "inner_product",
    "flat_dim",
    "block_layout",
]


# ---------------------------------------------------------------------------
# flat coordinate layout


def flat_dim(shape: AlgebraShape, m: int) -> int:
    """Complex dimension of the rank-m free module."""
    return m * shape.dim


def block_layout(shape: AlgebraShape, m: int) -> list[tuple[int, int]]:
    """(offset, length) of each block's segment in flat coordinates."""
    out, off = [], 0
    for n in shape.block_sizes:
        seg = m * n * n
        out.append((off, seg))
        off += seg
    return out


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
# module vectors


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """An m-tuple of algebra elements."""

    shape: AlgebraShape
    m: int
    entries: tuple[AlgebraElement, ...]

    def __post_init__(self):
        if self.m < 1:
            raise StructureError("module rank must be positive")
        if len(self.entries) != self.m:
            raise StructureError(f"expected {self.m} entries, got {len(self.entries)}")
        for e in self.entries:
            if e.shape != self.shape:
                raise StructureError("entry algebra mismatch")

    @classmethod
    def generator(cls, shape: AlgebraShape, m: int, i: int) -> "ModuleVector":
        """i-th standard generator: identity in slot i, zero elsewhere."""
        ents = [AlgebraElement.zero(shape) for _ in range(m)]
        ents[i] = AlgebraElement.identity(shape)
        return cls(shape, m, tuple(ents))

    @classmethod
    def from_flat(cls, shape: AlgebraShape, m: int, vec: Array) -> "ModuleVector":
        vec = as_complex(vec).ravel()
        if vec.shape[0] != flat_dim(shape, m):
            raise StructureError("flat vector length mismatch")
        # block b's segment is its tall form raveled row by row
        talls = [
            vec[off : off + seg].reshape(m * n, n)
            for (off, seg), n in zip(block_layout(shape, m), shape.block_sizes)
        ]
        return cls.from_talls(shape, m, talls)

    def flatten(self) -> Array:
        return np.concatenate([self.tall(b).ravel() for b in range(self.shape.num_blocks)])

    @classmethod
    def from_talls(cls, shape: AlgebraShape, m: int, talls: list[Array]) -> "ModuleVector":
        """Inverse of :meth:`tall`: block b of entry i is rows i*n_b .. (i+1)*n_b of talls[b]."""
        entries = []
        for i in range(m):
            blks = tuple(t[i * n : (i + 1) * n] for t, n in zip(talls, shape.block_sizes))
            entries.append(AlgebraElement(shape, blks))
        return cls(shape, m, tuple(entries))

    def tall(self, b: int) -> Array:
        """Block-b tall form: the m entry matrices stacked vertically."""
        return np.vstack([e.blocks[b] for e in self.entries])

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        return ModuleVector(
            self.shape, self.m, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return ModuleVector(
            self.shape, self.m, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __rmul__(self, scalar) -> "ModuleVector":
        return ModuleVector(self.shape, self.m, tuple(scalar * a for a in self.entries))

    def right_mul(self, a: AlgebraElement) -> "ModuleVector":
        """Right action: every entry multiplied by ``a`` on the right."""
        return ModuleVector(self.shape, self.m, tuple(e * a for e in self.entries))

    def norm(self) -> float:
        """Module norm: sqrt of the C*-norm of <x, x>."""
        return float(np.sqrt(inner_product(self, self).norm()))


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Algebra-valued inner product sum_i x_i* y_i (linear in y)."""
    if x.shape != y.shape or x.m != y.m:
        raise StructureError("inner product needs vectors from the same module")
    blocks = []
    for b in range(x.shape.num_blocks):
        xb, yb = x.tall(b), y.tall(b)
        blocks.append(xb.conj().T @ yb)
    return AlgebraElement(x.shape, tuple(blocks))


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

    @classmethod
    def span_vectors(
        cls,
        vectors: list[ModuleVector],
        tol: ToleranceConfig = DEFAULT_TOL,
    ) -> "Submodule":
        """Smallest submodule containing the vectors: per block, the column
        span of their tall forms side by side, decided at unit scale."""
        if not vectors:
            raise StructureError("need at least one vector to span")
        shape, m = vectors[0].shape, vectors[0].m
        talls = [np.hstack([v.tall(b) for v in vectors]) for b in range(shape.num_blocks)]
        return cls._of_groups(shape, m, _spans(Grouped.of(talls, complex), tol, scale=1.0))

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

    def basis_vectors(self) -> list[ModuleVector]:
        """Orthonormal basis in (block b, column j, position t) order: the
        vector whose block-b tall form has column j of ``column_bases[b]``
        in position t and zeros elsewhere."""
        sizes = self.shape.block_sizes
        out = []
        for b, (n, w) in enumerate(zip(sizes, self.column_bases)):
            for j in range(w.shape[1]):
                for t in range(n):
                    talls = [np.zeros((self.m * k, k), dtype=np.complex128) for k in sizes]
                    talls[b][:, t] = w[:, j]
                    out.append(ModuleVector.from_talls(self.shape, self.m, talls))
        return out

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
        rows run in :meth:`basis_vectors` order, so block b's rows reshape
        to the C_b of all samples at once.  W_b has orthonormal columns, so
        every norm of W_b C_b is that of C_b: the tall forms are never built.
        """
        sizes, ks = self.shape.block_sizes, self.k0().entries
        coeff = rng.normal(size=(self.dim, count)) + 1j * rng.normal(size=(self.dim, count))
        parts = np.split(coeff, np.cumsum([k * n for k, n in zip(ks, sizes)])[:-1])
        return [c.reshape(k, n, count) for c, k, n in zip(parts, ks, sizes)]

    def __repr__(self) -> str:
        return f"Submodule(shape={self.shape}, m={self.m}, k0={self.k0()})"
