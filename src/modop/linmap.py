"""Adjointable maps between free modules, stored group-major.

A module map is an (n x m) matrix over the algebra acting by left
multiplication.  Per algebra block it compresses to one complex matrix
acting column-wise on tall coordinate matrices, and that compressed
form is the computational workhorse: adjoints are conjugate transposes,
composition is matrix product, and the flat matrix of the map is block b's
compressed matrix tensored with I_{n_b}, so its singular values are the
per-block ones with multiplicity n_b.  Every certificate works on the
compressed blocks, the chosen-complement calculus of :mod:`modop.banach`
included: no module builds the dense flat matrix, which only the test
oracles build.  A plain matrix is a map over the one-block algebra (1).

The blocks are stored as one read-only (count, rows, cols) stack per block
size (a :class:`~modop.subspace.Grouped`), so a map over 1^256 is one
(256, rows, cols) array.  Every operation (sums, products, adjoints, the
spectral record, the staircase steps, the split and its certificate)
runs on those stacks, one numpy call per group, and so does every
per-block rank count.  A map copies its input once per block size only
when built from per-block matrices (``AdjointableMap(shape, m, n,
blocks)``, the files of :mod:`modop.serialize`); the results of its own
operations are fresh stacks and are owned without a copy.  ``blocks``
holds per-block views for I/O, reports and the test oracles.

Each map caches one spectral record, the full SVD of every block
(``_svd``).  Each tolerance and scale gets one rank decision on it,
referenced to ``norm()`` when no scale is given, made once
(``_decided``): ``kernel``, ``image``, ``cokernel``, ``coimage``,
``singular_data`` and step 1 of both staircases read it.  ``norm()``
reads that record if the map holds it, and otherwise takes the largest
block singular value by :func:`modop.subspace._top_singular`: a
Frobenius screen per group leaves values-only SVDs, at most two LAPACK
calls per group, only for the blocks that can set the max, with the
bits of per-block SVDs.  Which
SVD it reads depends on whether the map was decided first, and only
trailing digits depend on that order.  Maps whose norm alone is read
(the Drazin report's inverse, core part, nilpotent part and projector,
every residual map) keep that path: reading every norm off a full SVD
made ``drazin`` on the commuting (1)/96 file 50.1 -> 63.9 ms (numpy 2.4,
OpenBLAS on one thread, 2-core x86 machine).  An adjoint takes its
map's record, F* = V S^H U^H, and its norm over.  The record is stacked
on the map's groups, one LAPACK call per group, bitwise equal to
per-block calls.

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
from .subspace import (
    Grouped,
    SingularData,
    _above,
    _columns,
    _decide,
    _eyes,
    _live,
    _outside,
    _side_by_side,
    _stack_ranks,
    _top_singular,
    herm,
    stacked,
)
from .tolerances import COMM_TOL, DEFAULT_TOL, RESIDUAL_TOL, ToleranceConfig

Array = np.ndarray
Svd = tuple[Grouped, Grouped, Grouped]  # u, s, vh of every block
Decision = tuple[list[Sequence[int]], SingularData]  # per-group ranks, and their decision

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

    Block b's compressed complex matrix, of shape ``(n * n_b, m * n_b)``,
    acts on block-b column coordinates.  ``groups`` holds them as one
    stack per block shape; ``blocks[b]`` is a read-only view of block b.
    The constructor checks and copies the per-block matrices (or the
    blocks of a :class:`~modop.subspace.Grouped`) passed in, once per
    block size; the map's own operations own their fresh result stacks
    (:meth:`_of_groups`).
    """

    shape: AlgebraShape
    m: int
    n: int
    groups: Grouped

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise StructureError("module ranks must be positive")
        blocks = self.groups.mats if isinstance(self.groups, Grouped) else self.groups
        if len(blocks) != self.shape.num_blocks:
            raise StructureError("one compressed block per algebra block required")
        for nb, blk in zip(self.shape.block_sizes, blocks):
            if np.shape(blk) != (self.n * nb, self.m * nb):
                raise StructureError(
                    f"compressed block shape {np.shape(blk)}, "
                    f"expected ({self.n * nb},{self.m * nb})"
                )
        stacks = self.shape.stacks(
            lambda _, idx: np.array([blocks[b] for b in idx], dtype=complex, order="C")
        )
        object.__setattr__(self, "groups", stacks.frozen())

    @classmethod
    def _of_groups(cls, shape: AlgebraShape, m: int, n: int, groups: Grouped) -> "AdjointableMap":
        """A map owning fresh stacks (results of stacked work, on groups
        inside the block sizes): no copy and no check."""
        out = cls.__new__(cls)
        out.__dict__.update(shape=shape, m=m, n=n, groups=groups.frozen())
        return out

    @cached_property
    def blocks(self) -> tuple[Array, ...]:
        return self.groups.mats

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, shape: AlgebraShape, m: int, n: int) -> "AdjointableMap":
        zeros = shape.stacks(lambda nb, idx: np.zeros((len(idx), n * nb, m * nb), complex))
        return cls._of_groups(shape, m, n, zeros)

    @classmethod
    def identity(cls, shape: AlgebraShape, m: int) -> "AdjointableMap":
        return cls._of_groups(shape, m, m, shape.stacks(lambda nb, idx: _eyes(len(idx), m * nb)))

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

    # -- algebra of maps -------------------------------------------------

    def _same_spaces(self, other: "AdjointableMap"):
        if self.shape != other.shape or self.m != other.m or self.n != other.n:
            raise StructureError("maps act between different modules")

    def __add__(self, other: "AdjointableMap") -> "AdjointableMap":
        self._same_spaces(other)
        return AdjointableMap._of_groups(
            self.shape, self.m, self.n, stacked(np.add, self.groups, other.groups)
        )

    def __sub__(self, other: "AdjointableMap") -> "AdjointableMap":
        self._same_spaces(other)
        return AdjointableMap._of_groups(
            self.shape, self.m, self.n, stacked(np.subtract, self.groups, other.groups)
        )

    def __rmul__(self, scalar) -> "AdjointableMap":
        groups = self.groups.map(lambda s: scalar * s)
        return AdjointableMap._of_groups(self.shape, self.m, self.n, groups)

    def __neg__(self) -> "AdjointableMap":
        return AdjointableMap._of_groups(self.shape, self.m, self.n, self.groups.map(np.negative))

    def __matmul__(self, other: "AdjointableMap") -> "AdjointableMap":
        """Composition self after other."""
        if self.shape != other.shape or self.m != other.n:
            raise StructureError(
                f"cannot compose: domain rank {self.m} != codomain rank {other.n}"
            )
        return AdjointableMap._of_groups(
            self.shape, other.m, self.n, stacked(np.matmul, self.groups, other.groups)
        )

    def adjoint(self) -> "AdjointableMap":
        """F*, holding F's spectral record (F* = V S^H U^H) and norm, if F has them."""
        adj = AdjointableMap._of_groups(
            self.shape, self.n, self.m, self.groups.map(lambda s: np.ascontiguousarray(herm(s)))
        )
        if "_svd" in self.__dict__:
            u, s, vh = self._svd
            adj.__dict__["_svd"] = (vh.map(herm), s, u.map(herm))
        if "_norm" in self.__dict__:
            adj.__dict__["_norm"] = self._norm
        return adj

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

    def _merged(
        self, values: Grouped, tol: ToleranceConfig, scale: float | None
    ) -> SingularData:
        """Shared-cutoff decision: block b's values repeated n_b times."""
        # every group of a map's records lies inside one block size
        sizes = self.shape.block_sizes
        parts = [v.ravel().repeat(sizes[idx[0]]) for v, idx in zip(values.stacks, values.members)]
        merged = parts[0] if len(parts) == 1 else np.concatenate(parts or [[]])
        merged.sort()  # a fresh array: repeat copies
        return _decide(merged[::-1], tol, self.dim_ctx, scale)

    def norm(self) -> float:
        """Operator norm in the module sense (= largest block singular value),
        off ``_svd`` if the map holds it, else off screened values-only SVDs."""
        return self._norm

    @cached_property
    def _norm(self) -> float:
        svd = self.__dict__.get("_svd")
        if svd is None:
            return _top_singular(self.groups)
        return max((max(s[:, 0].tolist()) for s in svd[1].stacks if s.shape[-1]), default=0.0)

    def singular_data(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> SingularData:
        """The rank decision ``kernel``, ``image`` and ``cokernel`` read (:meth:`_decided`)."""
        return self._decided(tol, scale)[1]

    @cached_property
    def _svd(self) -> Svd:
        return stacked(np.linalg.svd, self.groups)

    def _ranks(self, values: Grouped, tol: ToleranceConfig, scale: float | None) -> Decision:
        """Per-block ranks of ``values``, one sequence per group, under one shared
        cutoff, and the decision that set it."""
        data = self._merged(values, tol, scale)
        return [_above(v, data.threshold) for v in values.stacks], data

    def _decided(self, tol: ToleranceConfig, scale: float | None) -> Decision:
        """The map's one rank decision per tolerance and scale, on its full
        SVD record and referenced to ``norm()`` when no scale is given."""
        values = self._svd[1]  # before norm(), which then reads it
        key = (tol, self.norm() if scale is None else scale)
        if key not in self._decisions:
            self._decisions[key] = self._ranks(values, *key)
        return self._decisions[key]

    @cached_property
    def _decisions(self) -> dict[tuple[ToleranceConfig, float], Decision]:
        return {}

    def _image_of(self, u: Grouped, ranks: list[Sequence[int]]) -> Submodule:
        """Column span of each decomposed block, under ``ranks``."""
        return Submodule._of_groups(self.shape, self.n, _columns(u, ranks, lead=True))

    def _kernel_of(self, vh: Grouped, ranks: list[Sequence[int]]) -> Submodule:
        """Kernel of each fully decomposed block, under ``ranks``."""
        return Submodule._of_groups(self.shape, self.m, _columns(vh.map(herm), ranks, lead=False))

    def kernel(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        return self._kernel_of(self._svd[2], self._decided(tol, scale)[0])

    def image(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        return self._image_of(self._svd[0], self._decided(tol, scale)[0])

    def cokernel(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        """(Im F)^perp: the trailing left singular vectors of the full SVD
        record, under the decision that sets ``image``."""
        ranks = self._decided(tol, scale)[0]
        return Submodule._of_groups(self.shape, self.n, _columns(self._svd[0], ranks, lead=False))

    def coimage(
        self, tol: ToleranceConfig = DEFAULT_TOL, *, scale: float | None = None
    ) -> Submodule:
        """(ker F)^perp = Im F*: the leading right singular vectors of the
        full SVD record, under the decision that sets ``kernel``."""
        ranks = self._decided(tol, scale)[0]
        return Submodule._of_groups(
            self.shape, self.m, _columns(self._svd[2].map(herm), ranks, lead=True)
        )

    def image_step(
        self, sub: Submodule, tol: ToleranceConfig = DEFAULT_TOL
    ) -> tuple[Submodule, float]:
        """F(sub), plus the margin of its shared-cutoff rank decision, made at
        the scale ||F|| and the map's ``dim_ctx``."""
        if sub.shape != self.shape or sub.m != self.m:
            raise StructureError("submodule not inside the domain module")
        moved = stacked(np.matmul, self.groups, sub.groups)
        u, s, _ = stacked(np.linalg.svd, moved, full_matrices=False)
        ranks, data = self._ranks(s, tol, self.norm())
        return self._image_of(u, ranks), data.margin

    def preimage_step(
        self, sub: Submodule, tol: ToleranceConfig = DEFAULT_TOL
    ) -> tuple[Submodule, float]:
        """F^-1(sub), as the kernel of (I - P_sub) F, plus the margin of its
        rank decision (same rule as :meth:`image_step`)."""
        if sub.shape != self.shape or sub.m != self.n:
            raise StructureError("submodule not inside the codomain module")
        _, s, vh = stacked(np.linalg.svd, stacked(_outside, self.groups, sub.groups))
        ranks, data = self._ranks(s, tol, self.norm())
        return self._kernel_of(vh, ranks), data.margin

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
        return f"AdjointableMap(shape={self.shape}, A^{self.m} -> A^{self.n})"


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
    :class:`IllConditionedError`.  Step 1 of both is F's own rank decision
    (``F.kernel``, ``F.image``): F I = F, (I - 0) F = F, and on square
    blocks the economy and the full SVD agree.  ``image(k)`` and
    ``kernel(k)`` return the plateau past p.  ``margin`` is the smallest
    step margin of both.

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
        nxt, margin = f.kernel(self.tol), f.singular_data(self.tol).margin
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
                nxt, step_margin = f.image(self.tol), f.singular_data(self.tol).margin
            else:
                nxt, step_margin = f.image_step(subs[-1], self.tol)
            kernel = self.kernel(k).groups
            blocks = zip(nxt.groups.sizes(-1), kernel.sizes(-1), kernel.sizes(-2))
            for b, (rank, null, rows) in enumerate(blocks):
                if rank + null != rows:
                    raise IllConditionedError(
                        f"block {b}: rank {rank} of Im F^{k} contradicts the kernel "
                        f"staircase's {rows - null} (step margin {step_margin:.3e})"
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
        s_mats = stacked(_side_by_side, range_space.groups, null_space.groups)
        values = stacked(np.linalg.svd, s_mats, compute_uv=False)
        cond, bad = np.ones(s_mats.count), []
        for s, idx in zip(values.stacks, values.members):
            inf = np.full(len(s), math.inf)
            cond[idx] = np.divide(s[:, 0], s[:, -1], out=inf, where=s[:, -1] > 0)
            ranks = _stack_ranks(s, self.tol, s.shape[-1], 1.0)
            bad += [b for b, r in zip(idx.tolist(), ranks) if r < s.shape[-1]]
        if bad:
            raise IllConditionedError(
                f"block {min(bad)}: splitting bases are numerically dependent "
                f"(cond S = {cond[min(bad)]:.3e})"
            )
        cond = max(1.0, max(cond.tolist()))
        return CoreSplit(range_space, null_space, s_mats, stacked(np.linalg.inv, s_mats), cond)

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
        # ts's groups lie inside the split's, whose blocks share their range
        # rank: stacked never merges positions an operand keeps apart
        ts = stacked(_similar, split.s_invs, g.groups, split.s_mats)
        ranks = split.range_space.groups.sizes(-1)
        parts = [(t, ranks[idx[0]], idx) for t, idx in zip(ts.stacks, ts.members)]
        g1s = Grouped([t[:, :r, :r] for t, r, _ in parts], ts.members)
        mixed = [(t, r, idx) for t, r, idx in parts if 0 < r < t.shape[-1]]
        off = max(
            _top_singular(Grouped([corner(t, r) for t, r, _ in mixed], [idx for *_, idx in mixed]))
            for corner in (lambda t, r: t[:, :r, r:], lambda t, r: t[:, r:, :r])
        ) / max(g.norm(), 1e-300)
        if off > RESIDUAL_TOL * max(1.0, split.cond):
            raise IdentityViolation(
                f"map is not block-diagonal on the splitting (off-diagonal {off:.3e})"
            )
        (cores,) = _live((g1s,), lambda t: t.shape[-1] > 0)
        data = g._merged(stacked(np.linalg.svd, cores, compute_uv=False), tol, g.norm())
        if data.rank != split.range_space.dim:
            raise IdentityViolation(
                "map is not invertible on the stable range "
                f"(rank {data.rank} of {split.range_space.dim})"
            )
        return BrowderWitness(
            f1_blocks=g1s,
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
    s_mats: Grouped
    s_invs: Grouped
    cond: float


@dataclass(frozen=True, eq=False)
class BrowderWitness:
    """A map G's core block on a chain's invariant split M +' N (its
    ``CoreSplit``), G block-diagonal on the split and invertible on M; in
    this finite model the complement N is always finitely generated."""

    f1_blocks: Grouped
    gamma_f1: float
    off_diagonal_residual: float


def _similar(s: Array, a: Array, s_inv: Array) -> Array:
    """S A S^-1, for one block or a stack."""
    return s @ a @ s_inv


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
    f._svd, d._svd  # the records the certificates decide on next: norm() reads them
    comm = (f @ d - d @ f).norm() / max(f.norm() * d.norm(), 1e-300)
    if comm > COMM_TOL:
        raise UnmetHypothesisError(f"maps do not commute (relative residual {comm:.3e})")
    return comm
