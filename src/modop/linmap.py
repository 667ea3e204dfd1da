"""Adjointable maps between free modules, stored per block.

A module map is an (n x m) matrix over the algebra acting by left
multiplication.  Per algebra block it compresses to one complex matrix
acting column-wise on tall coordinate matrices, and that compressed
form is the computational workhorse: adjoints are conjugate transposes,
composition is matrix product, and singular values of the full flat
realization are exactly the per-block singular values with multiplicity
n_b.  The dense flat realization is kept available (lazily) as an
independent oracle.

Each map carries one spectral record, computed on first use and cached:
the values-only SVD of every block (``_svals``, read by ``norm`` and
``singular_data``) and the full SVD (``_svd``, read by ``kernel``,
``image`` and ``mp_pseudoinverse``).  Rank decisions share one absolute
cutoff across blocks, derived from the global largest singular value by
:func:`modop.subspace._decide`, so blockwise and dense computations agree
decision-for-decision.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import DataError, IdentityViolation, StructureError, UnmetHypothesisError
from .modules import ModuleVector, Submodule, flat_dim
from .subspace import SingularData, _decide, as_complex, null_space, op_norm, orthonormal_image
from .tolerances import DEFAULT_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "AdjointableMap",
    "PowerChain",
    "RestrictedEndomorphism",
    "orthogonal_projection",
    "penrose_residuals",
    "commutator_residual",
    "require_finite",
]


class BlockwiseMap:
    """A map stored as one complex matrix per algebra block.

    Subclasses provide ``blocks``, ``shape`` and ``dim_ctx`` (the ambient
    dimension entering the rank cutoff).  Each block is decomposed at
    most twice per map: once for values only and once in full.  The two
    LAPACK jobs agree only to the last few digits, so each consumer keeps
    reading the record it needs; ``tol`` and ``scale`` only move the
    cutoff and are call arguments, not cache keys.
    """

    blocks: tuple[Array, ...]

    @cached_property
    def _svals(self) -> tuple[Array, ...]:
        return tuple(np.linalg.svd(c, compute_uv=False) for c in self.blocks)

    @cached_property
    def _svd(self) -> tuple[tuple[Array, Array, Array], ...]:
        return tuple(np.linalg.svd(c) for c in self.blocks)

    def _merged(
        self, values: Iterable[Array], tol: ToleranceConfig, scale: float | None
    ) -> SingularData:
        """Shared-cutoff decision: block b's values repeated n_b times."""
        reps = [np.repeat(v, nb) for v, nb in zip(values, self.shape.block_sizes)]
        return _decide(np.sort(np.concatenate(reps))[::-1], tol, self.dim_ctx, scale)

    def _ranks(self, tol: ToleranceConfig, scale: float | None) -> list[int]:
        """Per-block ranks of the full SVDs under the shared cutoff."""
        threshold = self._merged((s for _, s, _ in self._svd), tol, scale).threshold
        return [int(np.sum(s > threshold)) for _, s, _ in self._svd]

    def norm(self) -> float:
        """Operator norm in the module sense (= largest block singular value)."""
        return max((float(s[0]) if s.size else 0.0 for s in self._svals), default=0.0)

    def singular_data(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> SingularData:
        return self._merged(self._svals, tol, scale)


@dataclass(frozen=True, eq=False)
class AdjointableMap(BlockwiseMap):
    """Module map A^m -> A^n over a block algebra.

    ``blocks[b]`` is the compressed complex matrix of shape
    ``(n * n_b, m * n_b)`` acting on block-b column coordinates.
    """

    shape: AlgebraShape
    m: int
    n: int
    blocks: tuple[Array, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise StructureError("module ranks must be positive")
        if len(self.blocks) != self.shape.num_blocks:
            raise StructureError("one compressed block per algebra block required")
        frozen = []
        for nb, blk in zip(self.shape.block_sizes, self.blocks):
            blk = as_complex(blk)
            if blk.shape != (self.n * nb, self.m * nb):
                raise StructureError(
                    f"compressed block shape {blk.shape}, expected ({self.n * nb},{self.m * nb})"
                )
            blk = np.array(blk)
            blk.setflags(write=False)
            frozen.append(blk)
        object.__setattr__(self, "blocks", tuple(frozen))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, shape: AlgebraShape, m: int, n: int) -> "AdjointableMap":
        return cls(shape, m, n, tuple(np.zeros((n * nb, m * nb)) for nb in shape.block_sizes))

    @classmethod
    def identity(cls, shape: AlgebraShape, m: int) -> "AdjointableMap":
        return cls(shape, m, m, tuple(np.eye(m * nb) for nb in shape.block_sizes))

    @classmethod
    def from_entries(cls, rows: list[list[AlgebraElement]]) -> "AdjointableMap":
        """Build from an (n x m) nested list of algebra elements (finite)."""
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
        return cls(shape, m, n, tuple(blocks))

    @classmethod
    def from_element(cls, a: AlgebraElement) -> "AdjointableMap":
        """Left multiplication by a single element, as a map A^1 -> A^1."""
        return cls.from_entries([[a]])

    @classmethod
    def from_matrix(cls, mat: Array) -> "AdjointableMap":
        """A plain finite complex matrix as a map over the trivial one-block algebra."""
        mat = as_complex(mat)
        if mat.ndim != 2 or 0 in mat.shape:
            raise StructureError("need a nonempty 2-d matrix")
        require_finite([mat], "map")
        return cls(AlgebraShape((1,)), mat.shape[1], mat.shape[0], (mat,))

    # -- structure access -------------------------------------------------

    def entry(self, i: int, j: int) -> AlgebraElement:
        blks = []
        for nb, c in zip(self.shape.block_sizes, self.blocks):
            blks.append(c[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb])
        return AlgebraElement(self.shape, tuple(blks))

    @property
    def is_endomorphism(self) -> bool:
        return self.m == self.n

    @property
    def dim_ctx(self) -> int:
        return max(flat_dim(self.shape, self.m), flat_dim(self.shape, self.n))

    @cached_property
    def realization(self) -> Array:
        """Dense flat realization (block-diagonal Kronecker lift); oracle path."""
        d_dom, d_cod = flat_dim(self.shape, self.m), flat_dim(self.shape, self.n)
        out = np.zeros((d_cod, d_dom), dtype=np.complex128)
        dom_off = cod_off = 0
        for nb, c in zip(self.shape.block_sizes, self.blocks):
            seg_d, seg_c = self.m * nb * nb, self.n * nb * nb
            out[cod_off : cod_off + seg_c, dom_off : dom_off + seg_d] = np.kron(c, np.eye(nb))
            dom_off += seg_d
            cod_off += seg_c
        return out

    # -- algebra of maps -------------------------------------------------

    def _same_spaces(self, other: "AdjointableMap"):
        if self.shape != other.shape or self.m != other.m or self.n != other.n:
            raise StructureError("maps act between different modules")

    def __add__(self, other: "AdjointableMap") -> "AdjointableMap":
        self._same_spaces(other)
        return AdjointableMap(
            self.shape, self.m, self.n, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other: "AdjointableMap") -> "AdjointableMap":
        self._same_spaces(other)
        return AdjointableMap(
            self.shape, self.m, self.n, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __rmul__(self, scalar) -> "AdjointableMap":
        return AdjointableMap(self.shape, self.m, self.n, tuple(scalar * b for b in self.blocks))

    def __neg__(self) -> "AdjointableMap":
        return AdjointableMap(self.shape, self.m, self.n, tuple(-b for b in self.blocks))

    def __matmul__(self, other: "AdjointableMap") -> "AdjointableMap":
        """Composition self after other."""
        if self.shape != other.shape or self.m != other.n:
            raise StructureError(
                f"cannot compose: domain rank {self.m} != codomain rank {other.n}"
            )
        return AdjointableMap(
            self.shape,
            other.m,
            self.n,
            tuple(a @ b for a, b in zip(self.blocks, other.blocks)),
        )

    def adjoint(self) -> "AdjointableMap":
        return AdjointableMap(
            self.shape, self.n, self.m, tuple(b.conj().T for b in self.blocks)
        )

    def power(self, k: int) -> "AdjointableMap":
        if not self.is_endomorphism:
            raise StructureError("powers need an endomorphism")
        if k < 0:
            raise StructureError("negative powers undefined")
        out = AdjointableMap.identity(self.shape, self.m)
        base = self
        while k:
            if k & 1:
                out = out @ base
            k >>= 1
            if k:
                base = base @ base
        return out

    def apply(self, x: ModuleVector) -> ModuleVector:
        if x.shape != self.shape or x.m != self.m:
            raise StructureError("vector not in the domain module")
        talls = [c @ x.tall(b) for b, c in enumerate(self.blocks)]
        return _vector_from_talls(self.shape, self.n, talls)

    def apply_to_submodule(
        self, sub: Submodule, tol: ToleranceConfig = DEFAULT_TOL
    ) -> Submodule:
        """Image of a submodule (computed exactly per block on column bases)."""
        return self.image_step(sub, tol)[0]

    def image_step(
        self, sub: Submodule, tol: ToleranceConfig = DEFAULT_TOL
    ) -> tuple[Submodule, float]:
        """F(sub) per block, plus the worst margin of its rank decisions,
        which are made at the scale ||F|| and the map's ``dim_ctx``."""
        if sub.shape != self.shape or sub.m != self.m:
            raise StructureError("submodule not inside the domain module")
        return self._per_block(
            orthonormal_image, (c @ w for c, w in zip(self.blocks, sub.column_bases)), self.n, tol
        )

    def preimage_step(
        self, sub: Submodule, tol: ToleranceConfig = DEFAULT_TOL
    ) -> tuple[Submodule, float]:
        """F^-1(sub) per block, as the kernel of (I - P_sub) F, plus the worst
        margin of the rank decisions (same scale as :meth:`image_step`)."""
        if sub.shape != self.shape or sub.m != self.n:
            raise StructureError("submodule not inside the codomain module")
        return self._per_block(
            null_space,
            (c - k @ (k.conj().T @ c) for c, k in zip(self.blocks, sub.column_bases)),
            self.m,
            tol,
        )

    def _per_block(self, route, mats, m: int, tol: ToleranceConfig) -> tuple[Submodule, float]:
        scale = self.norm()
        bases, margin = [], math.inf
        for a in mats:
            basis, data = route(a, tol, dim_ctx=self.dim_ctx, scale=scale)
            bases.append(basis)
            margin = min(margin, data.margin)
        return Submodule(self.shape, m, tuple(bases)), margin

    def power_chain(self, tol: ToleranceConfig = DEFAULT_TOL) -> "PowerChain":
        """The power chain of this endomorphism, one per tolerance."""
        if not self.is_endomorphism:
            raise StructureError("power chains need an endomorphism")
        return self._chains.setdefault(tol, PowerChain(self, tol))

    @cached_property
    def _chains(self) -> dict[ToleranceConfig, "PowerChain"]:
        return {}

    # -- metrics, kernels, images, inverses ----------------------------------

    def allclose(self, other: "AdjointableMap", atol: float = 1e-12) -> bool:
        self._same_spaces(other)
        return all(np.allclose(a, b, atol=atol) for a, b in zip(self.blocks, other.blocks))

    def kernel(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        ranks = self._ranks(tol, scale)
        bases = [vh[r:].conj().T for (_, _, vh), r in zip(self._svd, ranks)]
        return Submodule(self.shape, self.m, tuple(bases))

    def image(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        ranks = self._ranks(tol, scale)
        bases = [u[:, :r] for (u, _, _), r in zip(self._svd, ranks)]
        return Submodule(self.shape, self.n, tuple(bases))

    def mp_pseudoinverse(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> "AdjointableMap":
        """Moore-Penrose pseudoinverse, blockwise under the shared cutoff."""
        blocks = []
        for (u, s, vh), r in zip(self._svd, self._ranks(tol, scale)):
            inv = np.zeros((vh.shape[0], u.shape[0]), dtype=np.complex128)
            if r:
                inv = vh[:r].conj().T @ np.diag(1.0 / s[:r]) @ u[:, :r].conj().T
            blocks.append(inv)
        return AdjointableMap(self.shape, self.n, self.m, tuple(blocks))

    def __repr__(self) -> str:
        return (
            f"AdjointableMap(shape={self.shape}, A^{self.m} -> A^{self.n}, "
            f"norm={self.norm():.3g})"
        )


@dataclass(frozen=True, eq=False)
class PowerChain:
    """Image and kernel staircases of an endomorphism F, free of powers.

    Im F^(k+1) = F(Im F^k) and ker F^(k+1) = F^-1(ker F^k), each step one
    SVD per block at the scale ||F|| (Kublanovskaya 1966; Golub &
    Wilkinson 1976): a cutoff at ||F||^k misreads the index when
    ||F^k|| << ||F||^k, and overflows for large ||F||.  Each staircase is
    built on first use and stops at its plateau, the descent and the
    ascent respectively; ``image(k)`` and ``kernel(k)`` return the
    plateau past it.  ``margin`` is the smallest step margin of both.
    """

    f: AdjointableMap
    tol: ToleranceConfig

    def _staircase(self, start: Submodule, step) -> tuple[tuple[Submodule, ...], float]:
        subs, margin = [start], math.inf
        for _ in range(start.ambient_dim + 1):
            nxt, step_margin = step(subs[-1], self.tol)
            margin = min(margin, step_margin)
            if nxt.dim == subs[-1].dim:
                return tuple(subs), margin
            subs.append(nxt)
        raise IdentityViolation("power chain failed to stabilize within the dimension bound")

    @cached_property
    def _images(self) -> tuple[tuple[Submodule, ...], float]:
        return self._staircase(Submodule.full(self.f.shape, self.f.m), self.f.image_step)

    @cached_property
    def _kernels(self) -> tuple[tuple[Submodule, ...], float]:
        return self._staircase(Submodule.zero(self.f.shape, self.f.m), self.f.preimage_step)

    @property
    def descent(self) -> int:
        return len(self._images[0]) - 1

    @property
    def ascent(self) -> int:
        return len(self._kernels[0]) - 1

    @property
    def rank_chain(self) -> tuple[int, ...]:
        """dim Im F^k for k = 0 .. descent."""
        return tuple(s.dim for s in self._images[0])

    @property
    def margin(self) -> float:
        return min(self._images[1], self._kernels[1])

    def image(self, k: int) -> Submodule:
        return self._images[0][min(k, self.descent)]

    def kernel(self, k: int) -> Submodule:
        return self._kernels[0][min(k, self.ascent)]


def require_finite(arrays: list[Array], what: str) -> None:
    """Reject inf/nan where outside data becomes a map or a vector, before
    any SVD can spin or fail on it.  Maps derived from finite ones are not
    re-checked: a check on every construction costs a few percent of a
    power chain."""
    if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        raise DataError(f"{what} entries must be finite (got inf or nan)")


def _vector_from_talls(shape: AlgebraShape, m: int, talls: list[Array]) -> ModuleVector:
    entries = []
    for i in range(m):
        blks = []
        for b, nb in enumerate(shape.block_sizes):
            blks.append(talls[b][i * nb : (i + 1) * nb])
        entries.append(AlgebraElement(shape, tuple(blks)))
    return ModuleVector(shape, m, tuple(entries))


# ---------------------------------------------------------------------------
# restrictions to submodules


@dataclass(frozen=True, eq=False)
class RestrictedEndomorphism(BlockwiseMap):
    """An endomorphism compressed to an invariant submodule.

    The underlying submodule is projective but generally not free, so
    the restriction is stored as per-block matrices in the submodule's
    column-basis coordinates rather than as an algebra matrix.
    ``invariance_defect`` certifies how far the parent map moved the
    submodule out of itself (relative to the parent norm).
    """

    domain: Submodule
    blocks: tuple[Array, ...]
    invariance_defect: float

    @classmethod
    def of(
        cls, f: AdjointableMap, sub: Submodule, tol: ToleranceConfig = DEFAULT_TOL
    ) -> "RestrictedEndomorphism":
        if not f.is_endomorphism or f.shape != sub.shape or f.m != sub.m:
            raise StructureError("restriction needs an endomorphism of the ambient module")
        scale = max(f.norm(), 1e-300)
        defect = 0.0
        blocks = []
        for c, w in zip(f.blocks, sub.column_bases):
            moved = c @ w
            inside = w.conj().T @ moved
            defect = max(defect, op_norm(moved - w @ inside) / scale)
            blocks.append(inside)
        if defect > tol.angle_tol * 10:
            raise UnmetHypothesisError(
                f"submodule is not invariant under the map (defect {defect:.3e})"
            )
        return cls(sub, tuple(blocks), float(defect))

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def shape(self) -> AlgebraShape:
        return self.domain.shape

    @property
    def dim_ctx(self) -> int:
        return self.domain.ambient_dim

    def kernel(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        """Kernel of the restriction, as a submodule of the ambient module."""
        ranks = self._ranks(tol, scale)
        ws = self.domain.column_bases
        bases = [w @ vh[r:].conj().T for w, (_, _, vh), r in zip(ws, self._svd, ranks)]
        return Submodule(self.shape, self.domain.m, tuple(bases))

    def image(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        ranks = self._ranks(tol, scale)
        ws = self.domain.column_bases
        bases = [w @ u[:, :r] for w, (u, _, _), r in zip(ws, self._svd, ranks)]
        return Submodule(self.shape, self.domain.m, tuple(bases))


# ---------------------------------------------------------------------------
# projections, Penrose residuals, commutation


def orthogonal_projection(sub: Submodule) -> AdjointableMap:
    """Orthogonal projection onto a submodule, as an adjointable map."""
    blocks = tuple(w @ w.conj().T for w in sub.column_bases)
    return AdjointableMap(sub.shape, sub.m, sub.m, blocks)


def penrose_residuals(f: AdjointableMap, x: AdjointableMap) -> dict[str, float]:
    """Relative residuals of the four Moore-Penrose equations."""
    fn = max(f.norm(), 1e-300)
    xn = max(x.norm(), 1e-300)
    fxf = f @ x @ f
    xfx = x @ f @ x
    fx = f @ x
    xf = x @ f
    return {
        "fxf": (fxf - f).norm() / fn,
        "xfx": (xfx - x).norm() / xn,
        "fx_selfadjoint": (fx - fx.adjoint()).norm() / max(fx.norm(), 1e-300),
        "xf_selfadjoint": (xf - xf.adjoint()).norm() / max(xf.norm(), 1e-300),
    }


def commutator_residual(
    f: AdjointableMap, d: AdjointableMap, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Relative commutator ||FD - DF|| / (||F|| ||D||) of two endomorphisms
    of one module; the precondition of every commuting-pair certificate.

    Raises :class:`UnmetHypothesisError` above ``tol.comm_tol``.
    """
    if f.shape != d.shape or f.m != d.m or not f.is_endomorphism or not d.is_endomorphism:
        raise StructureError("need two endomorphisms of the same module")
    comm = (f @ d - d @ f).norm() / max(f.norm() * d.norm(), 1e-300)
    if comm > tol.comm_tol:
        raise UnmetHypothesisError(f"maps do not commute (relative residual {comm:.3e})")
    return comm
