"""Element-level oracles: algebra elements, module vectors, and the
vector-wise forms of maps, submodules and their files.

The library holds an element of A as a map over A^1 (an
``AdjointableMap(shape, 1, 1, blocks)``), a map as one compressed matrix
per block and a submodule as one column basis per block.  This module
keeps the element-by-element picture, written from the definitions, for
the tests that check the compressed forms against it:

* :class:`AlgebraElement`, one complex matrix per block, with its norm
  taken block by block by ``np.linalg.norm(b, 2)``;
* :class:`ModuleVector`, an m-tuple of elements, and the algebra-valued
  :func:`inner_product`;
* a map's entries and action on vectors (:func:`from_entries`,
  :func:`entry`, :func:`apply`), a submodule's spanning set and basis
  vectors (:func:`span_vectors`, :func:`basis_vectors`);
* seeded random elements and flat vectors, and the finiteness check a
  map built from outside data takes (:func:`require_finite`);
* the vector-wise submodule writer (:func:`submodule_to_jsonable`), which
  builds one dense vector per basis column and position and writes each
  element block by block.

Flat coordinates ravel every entry block row by row, blocks in order
(:func:`block_layout`), so the standard inner product is the trace of
the algebra-valued one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modop.algebra import AlgebraShape
from modop.errors import DataError, StructureError
from modop.linmap import AdjointableMap
from modop.modules import Submodule, flat_dim
from modop.serialize import shape_to_jsonable
from modop.subspace import Grouped, _spans
from modop.tolerances import DEFAULT_TOL, ToleranceConfig

Array = np.ndarray


def require_finite(arrays: list[Array], what: str) -> None:
    """Reject inf/nan where outside data becomes a map."""
    if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        raise DataError(f"{what} entries must be finite (got inf or nan)")


def _frozen(a) -> Array:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# algebra elements


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
            blk = _frozen(blk)
            if blk.shape != (n, n):
                raise StructureError(f"block of size {blk.shape}, expected ({n},{n})")
            frozen.append(blk)
        object.__setattr__(self, "blocks", tuple(frozen))

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.zeros((n, n)) for n in shape.block_sizes))

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, tuple(np.eye(n) for n in shape.block_sizes))

    def _check_same(self, other: "AlgebraElement"):
        if self.shape != other.shape:
            raise StructureError(f"algebra mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.shape, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

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

    def adjoint(self) -> "AlgebraElement":
        """Blockwise conjugate transpose (the C* involution)."""
        return AlgebraElement(self.shape, tuple(a.conj().T for a in self.blocks))

    def norm(self) -> float:
        """C*-norm: the largest block spectral norm, one LAPACK call per block."""
        return max(float(np.linalg.norm(b, 2)) for b in self.blocks)

    def allclose(self, other: "AlgebraElement", atol: float = 1e-12) -> bool:
        self._check_same(other)
        return all(np.allclose(a, b, atol=atol) for a, b in zip(self.blocks, other.blocks))

    def dense(self) -> Array:
        """Block-diagonal complex matrix."""
        d = sum(self.shape.block_sizes)
        out = np.zeros((d, d), dtype=np.complex128)
        off = 0
        for n, blk in zip(self.shape.block_sizes, self.blocks):
            out[off : off + n, off : off + n] = blk
            off += n
        return out


def random_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    """Standard complex normal blocks, each from one (2, n, n) draw."""
    blocks = []
    for n in shape.block_sizes:
        z = rng.normal(size=(2, n, n))
        blocks.append((z[0] + z[1] * 1j) / np.sqrt(2.0))
    return AlgebraElement(shape, tuple(blocks))


# ---------------------------------------------------------------------------
# module vectors


def block_layout(shape: AlgebraShape, m: int) -> list[tuple[int, int]]:
    """(offset, length) of each block's segment in flat coordinates."""
    out, off = [], 0
    for n in shape.block_sizes:
        seg = m * n * n
        out.append((off, seg))
        off += seg
    return out


def random_vector_flat(shape: AlgebraShape, m: int, rng: np.random.Generator) -> Array:
    """A standard complex normal vector in flat coordinates."""
    z = rng.normal(size=(2, flat_dim(shape, m)))
    return (z[0] + z[1] * 1j) / np.sqrt(2.0)


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
    def from_flat(cls, shape: AlgebraShape, m: int, vec) -> "ModuleVector":
        vec = np.asarray(vec, dtype=np.complex128).ravel()
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
    blocks = [x.tall(b).conj().T @ y.tall(b) for b in range(x.shape.num_blocks)]
    return AlgebraElement(x.shape, tuple(blocks))


# ---------------------------------------------------------------------------
# maps and submodules, element by element


def from_entries(rows: list[list[AlgebraElement]]) -> AdjointableMap:
    """The map of an (n x m) nested list of finite algebra elements."""
    n = len(rows)
    if n == 0 or len(rows[0]) == 0:
        raise StructureError("entry matrix must be nonempty")
    m = len(rows[0])
    shape = rows[0][0].shape
    blocks = []
    for b, nb in enumerate(shape.block_sizes):
        c = np.zeros((n * nb, m * nb), dtype=np.complex128)
        for i in range(n):
            for j in range(m):
                if rows[i][j].shape != shape:
                    raise StructureError("mixed algebra shapes in entries")
                c[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb] = rows[i][j].blocks[b]
        blocks.append(c)
    require_finite(blocks, "map")
    return AdjointableMap(shape, m, n, tuple(blocks))


def entry(f: AdjointableMap, i: int, j: int) -> AlgebraElement:
    """Entry (i, j) of a map: block b's (i, j) sub-block of size n_b."""
    blks = [
        c[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb]
        for nb, c in zip(f.shape.block_sizes, f.blocks)
    ]
    return AlgebraElement(f.shape, tuple(blks))


def apply(f: AdjointableMap, x: ModuleVector) -> ModuleVector:
    """F x, block b's compressed matrix times x's block-b tall form."""
    if x.shape != f.shape or x.m != f.m:
        raise StructureError("vector not in the domain module")
    talls = [c @ x.tall(b) for b, c in enumerate(f.blocks)]
    return ModuleVector.from_talls(f.shape, f.n, talls)


def span_vectors(vectors: list[ModuleVector], tol: ToleranceConfig = DEFAULT_TOL) -> Submodule:
    """Smallest submodule containing the vectors: per block, the column
    span of their tall forms side by side, decided at unit scale."""
    if not vectors:
        raise StructureError("need at least one vector to span")
    shape, m = vectors[0].shape, vectors[0].m
    talls = [np.hstack([v.tall(b) for v in vectors]) for b in range(shape.num_blocks)]
    return Submodule._of_groups(shape, m, _spans(Grouped.of(talls, complex), tol, scale=1.0))


def basis_vectors(sub: Submodule) -> list[ModuleVector]:
    """Orthonormal basis in (block b, column j, position t) order: the
    vector whose block-b tall form has column j of ``column_bases[b]`` in
    position t and zeros elsewhere."""
    sizes = sub.shape.block_sizes
    out = []
    for b, (n, w) in enumerate(zip(sizes, sub.column_bases)):
        for j in range(w.shape[1]):
            for t in range(n):
                talls = [np.zeros((sub.m * k, k), dtype=np.complex128) for k in sizes]
                talls[b][:, t] = w[:, j]
                out.append(ModuleVector.from_talls(sub.shape, sub.m, talls))
    return out


# ---------------------------------------------------------------------------
# files, vector by vector


def element_to_jsonable(a: AlgebraElement) -> list:
    """Per block, its row-major ``[re, im]`` pairs."""
    return [[[[z.real, z.imag] for z in row] for row in blk.tolist()] for blk in a.blocks]


def vector_to_jsonable(x: ModuleVector) -> dict:
    return {
        "shape": shape_to_jsonable(x.shape),
        "m": x.m,
        "entries": [element_to_jsonable(e) for e in x.entries],
    }


def submodule_to_jsonable(sub: Submodule) -> dict:
    """A submodule file: its :func:`basis_vectors`, one vector at a time."""
    return {
        "shape": shape_to_jsonable(sub.shape),
        "m": sub.m,
        "vectors": [vector_to_jsonable(v) for v in basis_vectors(sub)],
    }
