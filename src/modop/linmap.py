"""Adjointable maps between free modules, stored per block.

A module map is an (n x m) matrix over the algebra acting by left
multiplication.  Per algebra block it compresses to one complex matrix
acting column-wise on tall coordinate matrices, and that compressed
form is the computational workhorse: adjoints are conjugate transposes,
composition is matrix product, and the flat matrix of the map is block b's
compressed matrix tensored with I_{n_b}, so its singular values are the
per-block ones with multiplicity n_b.  Every certificate works on the
compressed blocks.  The dense flat matrix (``realization``) serves only
as the test oracle and as the plain matrix ``modop banach`` works on.

Each map carries two spectral records, computed on first use and
cached: the values-only SVD of every block (``_svals``, read by ``norm``
and ``singular_data``) and the full SVD (``_svd``, read by ``kernel``,
``image``, ``cokernel`` and step 1 of the power chain).  The two LAPACK
jobs agree only to the last few digits, so each consumer keeps reading
the record it needs.  The values-only record stays because many maps
only have their norm read: the Drazin report's inverse, core part,
nilpotent part and projector, and every residual map.  On a 96 x 96
complex block the full SVD takes 4.1 ms and the values-only one 1.7 ms
(numpy 2.4, OpenBLAS on one thread, 2-core x86 machine).  Reading
``norm`` off the full SVD instead made the ladder-blockwise benchmark
slower in 4 of 4 alternating pairs: 31.95 -> 29.32 ops/s, p90
97.3 -> 110.5 ms.  Both are grouped stacked records:
:func:`modop.subspace.stacked` makes one LAPACK call per distinct block
shape and hands back per-block views, bitwise equal to per-block calls;
the later power-chain steps are grouped the same way.

An endomorphism's :class:`PowerChain`, one per tolerance, holds its
staircases and the core–nilpotent split Im F^p +' ker F^p with F's
blocks on it.  The Drazin inverse and power stabilization read that one
record; the Browder check certifies both factors of a commuting product
on the product's split, by the same routine.
Every rank decision on a map, a staircase step and a core block
included, is one call of :func:`modop.subspace._decide` on the merged
values of all blocks: one absolute cutoff across blocks, derived from
the global largest singular value, so blockwise and dense computations
agree decision-for-decision.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import (
    DataError,
    IdentityViolation,
    IllConditionedError,
    StructureError,
    UnmetHypothesisError,
)
from .modules import ModuleVector, Submodule, flat_dim
from .subspace import SingularData, _decide, as_complex, herm, stacked, svd_datas
from .tolerances import COMM_TOL, DEFAULT_TOL, RESIDUAL_TOL, ToleranceConfig

Array = np.ndarray
Svds = Sequence[tuple[Array, Array, Array]]  # one SVD per block

__all__ = [
    "AdjointableMap",
    "BrowderWitness",
    "CoreSplit",
    "PowerChain",
    "commutator_residual",
    "require_finite",
]


@dataclass(frozen=True, eq=False)
class AdjointableMap:
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
            blk = np.array(blk, dtype=np.complex128, order="C")  # a private copy
            if blk.shape != (self.n * nb, self.m * nb):
                raise StructureError(
                    f"compressed block shape {blk.shape}, expected ({self.n * nb},{self.m * nb})"
                )
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
        """Dense flat matrix (block-diagonal Kronecker lift): the test oracle
        and the plain matrix of ``modop banach``; no certificate reads it."""
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
            self.shape, other.m, self.n, tuple(stacked(np.matmul, self.blocks, other.blocks))
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
        return ModuleVector.from_talls(self.shape, self.n, talls)

    # -- spectral records, kernels and images ----------------------------------

    @cached_property
    def _svals(self) -> tuple[Array, ...]:
        return tuple(stacked(np.linalg.svd, self.blocks, compute_uv=False))

    def _merged(
        self, values: Sequence[Array], tol: ToleranceConfig, scale: float | None
    ) -> SingularData:
        """Shared-cutoff decision: block b's values repeated n_b times."""
        counts = np.repeat(self.shape.block_sizes, [v.size for v in values])
        merged = np.repeat(np.concatenate(values), counts)
        return _decide(np.sort(merged)[::-1], tol, self.dim_ctx, scale)

    def norm(self) -> float:
        """Operator norm in the module sense (= largest block singular value)."""
        return max((float(s[0]) if s.size else 0.0 for s in self._svals), default=0.0)

    def singular_data(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> SingularData:
        return self._merged(self._svals, tol, scale)

    @cached_property
    def _svd(self) -> Svds:
        return tuple(stacked(np.linalg.svd, self.blocks))

    def _ranks(
        self, svds: Svds, tol: ToleranceConfig, scale: float | None
    ) -> tuple[list[int], SingularData]:
        """Per-block ranks of ``svds`` under one shared cutoff, and the
        decision that set it."""
        data = self._merged([s for _, s, _ in svds], tol, scale)
        return [sum(1 for v in s.tolist() if v > data.threshold) for _, s, _ in svds], data

    def _image_of(
        self, svds: Svds, tol: ToleranceConfig, scale: float | None
    ) -> tuple[Submodule, float]:
        """Column span of each decomposed block, and the decision's margin."""
        ranks, data = self._ranks(svds, tol, scale)
        bases = tuple(u[:, :r] for (u, _, _), r in zip(svds, ranks))
        return Submodule(self.shape, self.n, bases), data.margin

    def _kernel_of(
        self, svds: Svds, tol: ToleranceConfig, scale: float | None
    ) -> tuple[Submodule, float]:
        """Kernel of each fully decomposed block, and the decision's margin."""
        ranks, data = self._ranks(svds, tol, scale)
        bases = tuple(vh[r:].conj().T for (_, _, vh), r in zip(svds, ranks))
        return Submodule(self.shape, self.m, bases), data.margin

    def kernel(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        return self._kernel_of(self._svd, tol, scale)[0]

    def image(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        return self._image_of(self._svd, tol, scale)[0]

    def cokernel(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        """(Im F)^perp: the trailing left singular vectors of the full SVD
        record, under the decision that sets ``image``."""
        ranks, _ = self._ranks(self._svd, tol, scale)
        bases = tuple(u[:, r:] for (u, _, _), r in zip(self._svd, ranks))
        return Submodule(self.shape, self.n, bases)

    def image_step(
        self, sub: Submodule, tol: ToleranceConfig = DEFAULT_TOL
    ) -> tuple[Submodule, float]:
        """F(sub), plus the margin of its shared-cutoff rank decision, made at
        the scale ||F|| and the map's ``dim_ctx``."""
        if sub.shape != self.shape or sub.m != self.m:
            raise StructureError("submodule not inside the domain module")
        moved = stacked(np.matmul, self.blocks, sub.column_bases)
        return self._image_of(stacked(np.linalg.svd, moved, full_matrices=False), tol, self.norm())

    def preimage_step(
        self, sub: Submodule, tol: ToleranceConfig = DEFAULT_TOL
    ) -> tuple[Submodule, float]:
        """F^-1(sub), as the kernel of (I - P_sub) F, plus the margin of its
        rank decision (same rule as :meth:`image_step`)."""
        if sub.shape != self.shape or sub.m != self.n:
            raise StructureError("submodule not inside the codomain module")
        outside = stacked(_outside, self.blocks, sub.column_bases)
        return self._kernel_of(stacked(np.linalg.svd, outside), tol, self.norm())

    def power_chain(self, tol: ToleranceConfig = DEFAULT_TOL) -> "PowerChain":
        """The power chain of this endomorphism, one per tolerance."""
        if not self.is_endomorphism:
            raise StructureError("power chains need an endomorphism")
        return self._chains.setdefault(tol, PowerChain(self, tol))

    @cached_property
    def _chains(self) -> dict[ToleranceConfig, "PowerChain"]:
        return {}

    def allclose(self, other: "AdjointableMap", atol: float = 1e-12) -> bool:
        self._same_spaces(other)
        return all(np.allclose(a, b, atol=atol) for a, b in zip(self.blocks, other.blocks))

    def __repr__(self) -> str:
        return (
            f"AdjointableMap(shape={self.shape}, A^{self.m} -> A^{self.n}, "
            f"norm={self.norm():.3g})"
        )


@dataclass(frozen=True, eq=False)
class PowerChain:
    """Kernel and image staircases of an endomorphism F, free of powers,
    and the core–nilpotent split they end in.

    ker F^(k+1) = F^-1(ker F^k), each step one SVD per block and one
    shared-cutoff decision at the scale ||F|| (Kublanovskaya 1966; Golub &
    Wilkinson 1976): a cutoff at ||F||^k misreads the index when
    ||F^k|| << ||F||^k, and overflows for large ||F||.  This staircase
    alone sets the index and the ranks, and stops at the first step that
    does not grow it: the ``index`` p.  For k = 1 .. p, Im F^k = F(Im F^(k-1))
    must have rank d_b - dim_b ker F^k in each block b, so the two fill the
    space; an image step whose cutoff contradicts that rank raises
    :class:`IllConditionedError`.  Step 1 of both reads F's own full SVD
    record: F I = F, (I - 0) F = F, and on square blocks the economy and
    the full SVD agree.  ``image(k)`` and ``kernel(k)`` return the plateau
    past p.  ``margin`` is the smallest step margin of both.

    At p the staircases split the module as Im F^p +' ker F^p (``split``),
    and ``core`` is F certified on that split: block-diagonal and
    invertible on Im F^p.  Both are computed once per chain.  ``witness``
    certifies any map on the split the same way.
    """

    f: AdjointableMap
    tol: ToleranceConfig

    @cached_property
    def _kernels(self) -> tuple[tuple[Submodule, ...], float]:
        f = self.f
        subs = [Submodule.zero(f.shape, f.m)]
        nxt, margin = f._kernel_of(f._svd, self.tol, f.norm())
        while nxt.dim > subs[-1].dim:  # dims strictly grow: at most dim + 1 steps
            subs.append(nxt)
            nxt, step_margin = f.preimage_step(nxt, self.tol)
            margin = min(margin, step_margin)
        return tuple(subs), margin

    @cached_property
    def _images(self) -> tuple[tuple[Submodule, ...], float]:
        f = self.f
        subs, margin = [Submodule.full(f.shape, f.m)], math.inf
        for k in range(1, self.index + 1):
            if k == 1:
                nxt, step_margin = f._image_of(f._svd, self.tol, f.norm())
            else:
                nxt, step_margin = f.image_step(subs[-1], self.tol)
            for b, (u, v) in enumerate(zip(nxt.column_bases, self.kernel(k).column_bases)):
                if u.shape[1] + v.shape[1] != v.shape[0]:
                    raise IllConditionedError(
                        f"block {b}: rank {u.shape[1]} of Im F^{k} contradicts the kernel "
                        f"staircase's {v.shape[0] - v.shape[1]} (step margin {step_margin:.3e})"
                    )
            subs.append(nxt)
            margin = min(margin, step_margin)
        return tuple(subs), margin

    @property
    def index(self) -> int:
        """Where the kernel staircase stops: ascent and descent in one."""
        return len(self._kernels[0]) - 1

    @property
    def rank_chain(self) -> tuple[int, ...]:
        """dim Im F^k = dim - dim ker F^k for k = 0 .. index."""
        return tuple(k.ambient_dim - k.dim for k in self._kernels[0])

    @property
    def margin(self) -> float:
        return min(self._images[1], self._kernels[1])

    def image(self, k: int) -> Submodule:
        return self._images[0][min(k, self.index)]

    def kernel(self, k: int) -> Submodule:
        return self._kernels[0][min(k, self.index)]

    @cached_property
    def split(self) -> "CoreSplit":
        """Im F^p +' ker F^p at the index p.  Raises IllConditionedError
        unless, per block, the square S = [U V] has full rank."""
        p = self.index
        range_space, null_space = self.image(p), self.kernel(p)
        s_mats = [np.hstack(uv) for uv in zip(range_space.column_bases, null_space.column_bases)]
        cond = 1.0
        for b, (s, sv) in enumerate(zip(s_mats, svd_datas(s_mats, self.tol, scale=1.0))):
            cond_b = sv.smax / sv.values[-1] if sv.values and sv.values[-1] > 0 else math.inf
            if sv.rank < s.shape[0]:
                raise IllConditionedError(
                    f"block {b}: splitting bases are numerically dependent (cond S = {cond_b:.3e})"
                )
            cond = max(cond, cond_b)
        return CoreSplit(
            range_space, null_space, tuple(s_mats), tuple(stacked(np.linalg.inv, s_mats)), cond
        )

    @cached_property
    def core(self) -> "BrowderWitness":
        """F on its own split."""
        return self.witness(self.f)

    def witness(self, g: AdjointableMap) -> "BrowderWitness":
        """G on this chain's split: S^-1 G S per block, certified block-diagonal
        and invertible on the range.

        The off-diagonal blocks, relative to ||G||, must stay within
        ``RESIDUAL_TOL`` times the split's condition number.  The core blocks
        get one values-only SVD and one shared-cutoff decision at the scale
        ||G||, which must find full rank; ``gamma_f1`` is their smallest
        singular value (+inf on the zero space).
        """
        split, tol = self.split, self.tol
        ranks = split.range_space.k0().entries
        ts = stacked(_similar, split.s_invs, g.blocks, split.s_mats)
        g1s = tuple(t[:r, :r] for t, r in zip(ts, ranks))
        g4s = tuple(t[r:, r:] for t, r in zip(ts, ranks))
        mixed = [(t, r) for t, r in zip(ts, ranks) if 0 < r < t.shape[0]]
        upper = stacked(np.linalg.svd, [t[:r, r:] for t, r in mixed], compute_uv=False)
        lower = stacked(np.linalg.svd, [t[r:, :r] for t, r in mixed], compute_uv=False)
        ng = max(g.norm(), 1e-300)
        off = max((max(float(a[0]), float(b[0])) / ng for a, b in zip(upper, lower)), default=0.0)
        if off > RESIDUAL_TOL * max(1.0, split.cond):
            raise IdentityViolation(
                f"map is not block-diagonal on the splitting (off-diagonal {off:.3e})"
            )
        cores = iter(stacked(np.linalg.svd, [g1 for g1 in g1s if g1.size], compute_uv=False))
        values = [next(cores) if g1.size else np.zeros(0) for g1 in g1s]
        data = g._merged(values, tol, g.norm())
        if data.rank != split.range_space.dim:
            raise IdentityViolation(
                "map is not invertible on the stable range "
                f"(rank {data.rank} of {split.range_space.dim})"
            )
        return BrowderWitness(
            f1_blocks=g1s,
            f4_blocks=g4s,
            gamma_f1=data.gamma,
            off_diagonal_residual=off,
        )


@dataclass(frozen=True, eq=False)
class CoreSplit:
    """Per-block oblique change of basis S = [U V] onto Im F^p +' ker F^p,
    its inverse, and the largest condition number of S (at least 1): the
    closedness margin of the split."""

    range_space: Submodule
    null_space: Submodule
    s_mats: tuple[Array, ...]
    s_invs: tuple[Array, ...]
    cond: float


@dataclass(frozen=True, eq=False)
class BrowderWitness:
    """A map G's diagonal blocks on a chain's invariant split M +' N (its
    ``CoreSplit``), G invertible on M; in this finite model the complement
    N is always finitely generated."""

    f1_blocks: tuple[Array, ...]
    f4_blocks: tuple[Array, ...]
    gamma_f1: float
    off_diagonal_residual: float


def _similar(s: Array, a: Array, s_inv: Array) -> Array:
    """S A S^-1, for one block or a stack."""
    return s @ a @ s_inv


def _outside(c: Array, k: Array) -> Array:
    """(I - P_k) C: the part of C's columns outside span(k)."""
    return c - k @ (herm(k) @ c)


def require_finite(arrays: list[Array], what: str) -> None:
    """Reject inf/nan where outside data becomes a map or a vector, before
    any SVD can spin or fail on it.  Maps derived from finite ones are not
    re-checked: a check on every construction costs a few percent of a
    power chain."""
    if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        raise DataError(f"{what} entries must be finite (got inf or nan)")


# ---------------------------------------------------------------------------
# commutation


def commutator_residual(f: AdjointableMap, d: AdjointableMap) -> float:
    """Relative commutator ||FD - DF|| / (||F|| ||D||) of two endomorphisms
    of one module; the precondition of every commuting-pair certificate.

    Raises :class:`UnmetHypothesisError` above ``COMM_TOL``.
    """
    if f.shape != d.shape or f.m != d.m or not f.is_endomorphism or not d.is_endomorphism:
        raise StructureError("need two endomorphisms of the same module")
    comm = (f @ d - d @ f).norm() / max(f.norm() * d.norm(), 1e-300)
    if comm > COMM_TOL:
        raise UnmetHypothesisError(f"maps do not commute (relative residual {comm:.3e})")
    return comm
