"""Complex-subspace numerics: the single SVD core everything routes through.

Subspaces of C^d are represented by matrices with orthonormal columns
(zero columns for the trivial subspace).  Every rank decision on
singular values funnels through one cutoff, ``ToleranceConfig.rank_threshold``,
and every recorded decision through one function, :func:`_decide`: it
sets the cutoff under the shared tolerance policy and records the margin
by which the decision was made.  The maps of :mod:`modop.linmap` call
it once per block family: a map's records and each step of its power
chain merge the values of all blocks into one decision.  The grouped
rank counts (:func:`_stack_ranks`, used by the lattice operations, the
spans of submodule files and the arrows of :func:`chains_exactness`)
decide every matrix of a stack at once, by the rule of :func:`_decide`.
There is no one-matrix path: a loose matrix is a map over the one-block
algebra (1).

Storage is group-major.  A :class:`Grouped` holds matrices indexed by
position (an algebra block, most often) as one (count, rows, cols) stack
per shape, plus the positions each stack holds.  A map's blocks and a
submodule's column bases are stored that way, and :func:`stacked` runs
numpy once per stored stack: no restacking of block lists and no split
of the result, so the number of numpy calls grows with the number of
distinct block shapes, not with the number of blocks.  Stacked LAPACK
and BLAS output is bitwise equal to the per-matrix output, so grouping
moves no digit.  A matrix with a zero dimension takes the same path:
numpy gives it an empty image, an identity kernel and no singular
values, so its margin is +inf.  When operands are grouped differently
(a map's blocks and a submodule whose widths vary, say), :func:`stacked`
calls numpy once per group of positions that every operand holds in
one group.

One wrinkle worth stating: rank cutoffs are relative to a *scale
reference*.  For a matrix taken as primary input this is its own largest
singular value, but for derived matrices (products, residuals of
near-nilpotent maps, a map applied to a basis) the caller passes the
factor norms.  Otherwise a numerically-zero matrix (entries ~1e-16) would
be declared full rank because the cutoff shrank along with it.  Powers
are never formed: :class:`modop.linmap.PowerChain` steps at scale ||F||.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError
from .tolerances import COINCIDE_TOL, DEFAULT_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "Grouped",
    "SingularData",
    "stacked",
    "chains_exactness",
]


def as_complex(a) -> Array:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def herm(a: Array) -> Array:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _partition(keys: Iterable) -> list[list[int]]:
    """The positions of ``keys`` grouped by equal key, in order of first
    position: the one grouping rule of stored and regrouped stacks."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


class Grouped:
    """Matrices indexed by position, stored group-major.

    ``stacks[g]`` is one (count, rows, cols) array holding the matrices at
    the ascending positions ``members[g]``.  Groups are ordered by their
    first position and hold one shape each.  The stacks of a map or a
    submodule are read-only (:meth:`frozen`); intermediate results are not.
    """

    __slots__ = ("stacks", "members", "_count", "_mats")

    def __init__(self, stacks: Sequence[Array], members: Sequence[Array]):
        self.stacks, self.members = tuple(stacks), tuple(members)
        self._count = self._mats = None

    def frozen(self) -> "Grouped":
        """These stacks, made read-only in place."""
        for s in self.stacks:
            s.setflags(write=False)
        return self

    @classmethod
    def of(cls, mats: Sequence, dtype=None) -> "Grouped":
        """A C-contiguous copy of per-position matrices: one array
        conversion per shape."""
        groups = _partition([np.shape(a) for a in mats])
        out = cls(
            [np.array([mats[i] for i in idx], dtype=dtype, order="C") for idx in groups],
            [np.array(idx) for idx in groups],
        )
        out._count = len(mats)
        return out

    @property
    def count(self) -> int:
        """One past the last position held."""
        if self._count is None:
            self._count = max((int(idx[-1]) + 1 for idx in self.members), default=0)
        return self._count

    @property
    def mats(self) -> tuple[Array, ...]:
        """The matrix at each position, as a view of its stack (read-only for
        the stacks of a map or a submodule)."""
        if self._mats is None:
            out: list = [None] * self.count
            for stack, idx in zip(self.stacks, self.members):
                for i, a in zip(idx.tolist(), stack):
                    out[i] = a
            self._mats = tuple(out)
        return self._mats

    def map(self, fn: Callable[[Array], Array]) -> "Grouped":
        """``fn`` (elementwise, or per matrix over a stack) on every stack."""
        return Grouped([fn(s) for s in self.stacks], self.members)

    def sizes(self, axis: int) -> list[int]:
        """Per position, the matrix size along ``axis`` (-2 rows, -1 columns)."""
        out = [0] * self.count
        for stack, idx in zip(self.stacks, self.members):
            for i in idx.tolist():
                out[i] = stack.shape[axis]
        return out


def _eyes(count: int, d: int) -> Array:
    """A stack of ``count`` d x d identities."""
    return np.repeat(np.eye(d, dtype=complex)[None], count, axis=0)


def _alike(a: tuple[Array, ...], b: tuple[Array, ...]) -> bool:
    """Whether two groupings are the same (the maps over one shape share one)."""
    return a is b or (
        len(a) == len(b) and all(x is y or x.tolist() == y.tolist() for x, y in zip(a, b))
    )


def _aligned(operands: Sequence[Grouped]) -> tuple[tuple[Array, ...], list[tuple[Array, ...]]]:
    """The groups of positions that every operand holds in one group, and
    each group's stack per operand.  Operands grouped alike pass their
    stored stacks; otherwise the positions are regrouped by the group each
    operand holds them in, so no regrouping merges positions an operand
    keeps apart, and each operand's part is one gather from its stack."""
    first = operands[0].members
    if all(_alike(op.members, first) for op in operands[1:]):
        return first, list(zip(*[op.stacks for op in operands]))
    where = []  # per operand: position -> (group, slot)
    for op in operands:
        at = {}
        for g, idx in enumerate(op.members):
            at.update((i, (g, s)) for s, i in enumerate(idx.tolist()))
        where.append(at)
    held = sorted(where[0])
    keys = (tuple(at[i][0] for at in where) for i in held)
    members = [[held[k] for k in idx] for idx in _partition(keys)]
    parts = [
        tuple(op.stacks[at[idx[0]][0]][[at[i][1] for i in idx]] for op, at in zip(operands, where))
        for idx in members
    ]
    return tuple(np.array(idx) for idx in members), parts


def _live(operands: Sequence[Grouped], keep: Callable[..., bool]) -> tuple[Grouped, ...]:
    """The operands aligned and cut down to the groups whose stacks pass ``keep``."""
    members, parts = _aligned(operands)
    live = [(idx, args) for idx, args in zip(members, parts) if keep(*args)]
    return tuple(
        Grouped([args[j] for _, args in live], [idx for idx, _ in live])
        for j in range(len(operands))
    )


def _merge(pieces: Sequence[tuple[Array, Array]]) -> Grouped:
    """(stack, positions) pieces joined into one contiguous group per shape."""
    pieces = sorted(pieces, key=lambda piece: int(piece[1][0]))
    stacks, members = [], []
    for group in _partition(stack.shape[1:] for stack, _ in pieces):
        stack, idx = pieces[group[0]]
        if len(group) > 1:
            idx = np.concatenate([pieces[k][1] for k in group])
            order = np.argsort(idx, kind="stable")
            stack, idx = np.concatenate([pieces[k][0] for k in group])[order], idx[order]
        stacks.append(np.ascontiguousarray(stack))
        members.append(idx)
    return Grouped(stacks, members)


def _split(w: Sequence[int]) -> list[tuple[int, Array | None]]:
    """The distinct values of ``w`` (one per row), each with a mask of its
    rows (None when ``w`` holds one value)."""
    w = np.asarray(w)
    values = w.tolist()
    if values.count(values[0]) == len(values):
        return [(values[0], None)]
    return [(k, w == k) for k in sorted(set(values))]


def _columns(g: Grouped, widths: Sequence[Sequence[int]], lead: bool) -> Grouped:
    """Per position, the first ``widths`` columns of its matrix (``lead``)
    or the columns past them, contiguous; ``widths`` holds one sequence per
    group.  A group whose widths differ is split by width."""
    pieces, split = [], False
    for stack, idx, w in zip(g.stacks, g.members, widths):
        for k, sel in _split(w):
            part, pos = (stack, idx) if sel is None else (stack[sel], idx[sel])
            pieces.append((part[..., :k] if lead else part[..., k:], pos))
            split = split or sel is not None
    if split:
        return _merge(pieces)
    return Grouped([np.ascontiguousarray(p) for p, _ in pieces], g.members)


def stacked(fn: Callable, *operands: Grouped, **kwargs):
    """``fn`` on every position's matrices, one call per group of positions
    that every operand holds in one group (:func:`_aligned`).

    ``fn`` is a numpy routine that maps over leading stack axes
    (``np.linalg.svd``, ``qr``, ``inv``, ``np.matmul`` or an expression of
    them).  Operands grouped alike (a map's blocks and the column bases of
    a submodule of uniform rank, say) pass their stored stacks, a stack of
    one included.  The result is a :class:`Grouped` on the called groups (a
    tuple of them for tuple results, such as an SVD).  Stacked LAPACK and
    BLAS output is bitwise equal to the per-matrix output.
    """
    members, parts = _aligned(operands)
    results = [fn(*args, **kwargs) for args in parts]
    if results and isinstance(results[0], tuple):
        return tuple([Grouped(rs, members) for rs in zip(*results)])
    return Grouped(results, members)


@dataclass(frozen=True)
class SingularData:
    """Spectral summary of a matrix under the shared rank tolerance.

    ``gamma`` is the reduced minimum modulus: the smallest singular value
    above the cutoff, with the +inf convention for the zero map.
    ``margin`` is the relative gap defending the rank decision (gap
    between the kept and dropped singular-value clusters, divided by the
    scale reference); +inf when the decision is unambiguous.
    """

    values: tuple[float, ...]
    rank: int
    gamma: float
    threshold: float
    margin: float

    @property
    def smax(self) -> float:
        return self.values[0] if self.values else 0.0


def _decide(
    values: np.ndarray, tol: ToleranceConfig, dim_ctx: int, scale: float | None
) -> SingularData:
    """Rank, gamma, cutoff and margin for descending singular ``values``.

    The reference scale is ``max(smax, scale)`` and the cutoff is
    ``tol.rank_threshold(ref, dim_ctx)``; empty input has cutoff 0.0.
    Non-finite values raise :class:`IllConditionedError`.
    """
    vals = tuple(values.tolist())
    if not all(map(math.isfinite, vals)):  # an SVD that overflowed returns NaN
        raise IllConditionedError("singular values are not finite: the SVD overflowed")
    smax = vals[0] if vals else 0.0
    ref = max(smax, scale if scale is not None else 0.0)
    threshold = tol.rank_threshold(ref, dim_ctx) if vals else 0.0
    rank = sum(1 for v in vals if v > threshold)
    gamma = vals[rank - 1] if rank > 0 else math.inf
    refm = max(ref, 1e-300)
    if not vals:
        margin = math.inf
    elif rank == 0:
        margin = math.inf if vals[0] == 0.0 else (threshold - vals[0]) / max(threshold, 1e-300)
    elif rank == len(vals):
        margin = vals[-1] / refm
    else:
        margin = (vals[rank - 1] - vals[rank]) / refm
    return SingularData(vals, rank, gamma, threshold, margin)


def _above(values: Array, cut: float | Array) -> Array:
    """Per row of a (count, k) stack, how many values exceed ``cut`` (one
    cutoff, or one per row)."""
    return np.add.reduce(values > (cut if isinstance(cut, float) else cut[:, None]), axis=-1)


def _stack_ranks(
    values: Array, tol: ToleranceConfig, dim_ctx: int, scale: float | None
) -> Array:
    """The ranks :func:`_decide` gives the rows of a (count, k) stack of
    descending singular values, counted for the whole stack at once: the
    cutoff of each row is ``tol.rank_threshold`` at ``max(smax, scale)``,
    as in :func:`_decide`."""
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise IllConditionedError("singular values are not finite: the SVD overflowed")
    if not values.shape[-1]:
        return np.zeros(len(values), dtype=int)
    ref = values[:, 0] if scale is None else np.maximum(values[:, 0], scale)
    return _above(values, tol.rank_threshold(ref, dim_ctx))


def _spans(
    g: Grouped, tol: ToleranceConfig, *, scale: float | None, kernel: bool = False
) -> Grouped:
    """Orthonormal bases of the column spans (or the kernels) of g's
    matrices, one stacked SVD per group, each rank decided on its own
    matrix."""
    u, s, vh = stacked(np.linalg.svd, g, full_matrices=kernel)
    ranks = [_stack_ranks(v, tol, max(a.shape[1:]), scale) for v, a in zip(s.stacks, g.stacks)]
    if kernel:
        return _columns(vh.map(herm), ranks, lead=False)
    return _columns(u, ranks, lead=True)


def _top_singular(g: Grouped) -> float:
    """The largest singular value over g's matrices (0.0 for none): bitwise
    the ``max`` of their values-only SVDs, in at most two LAPACK calls per
    group, and one for a group of one.

    sigma_max(A) <= ||A||_F (Golub & Van Loan, *Matrix Computations*,
    §2.3), so a matrix whose Frobenius norm is below the largest value
    found cannot set the max.  A larger group is divided by its largest
    |entry|, so no square that matters under- or overflows; the matrix of
    largest Frobenius norm is decomposed first, then every other whose
    norm exceeds that value less a relative slack of 1e-8, in one call.
    The slack covers rounding on both sides (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3-4): the scaled
    Frobenius norm is within (rows * cols + 2) u of the exact one, and
    gesdd's values are exact for a matrix within p(n) u ||A|| of the
    input, so both errors are far below 1e-8 at the block sizes here
    (u = 2^-53).  Non-finite norms are always kept, so a NaN entry raises
    the ``LinAlgError`` the unscreened call raised; a dropped matrix
    stands as 0.0, so Python's ``max`` sees the same order and NaNs.
    """
    tops = []
    for a in g.stacks:
        if not a.size:
            continue
        if len(a) == 1:
            tops.append(float(np.linalg.svd(a[0], compute_uv=False)[0]))
            continue
        mags = np.abs(a)
        scale = mags.max()
        if scale == 0.0:
            tops.append(0.0)
            continue
        with np.errstate(invalid="ignore"):  # inf / inf: a NaN norm, kept
            fro = np.sqrt(np.square(mags / scale).sum(axis=(1, 2)))
        top = int(np.argmax(fro))
        values = np.zeros(len(a))
        values[top] = np.linalg.svd(a[top], compute_uv=False)[0]
        keep = ~(fro <= values[top] / scale * (1.0 - 1e-8))
        keep[top] = False
        if keep.any():
            values[keep] = np.linalg.svd(a[keep], compute_uv=False)[:, 0]
        tops.append(max(values.tolist()))
    return max(tops, default=0.0)


def _cross(q: Array, x: Array) -> Array:
    """q^H x, whose singular values are the cosines of the principal angles
    between span(q) and span(x), for orthonormal q and x."""
    return herm(q) @ x


def _outside(c: Array, k: Array) -> Array:
    """(I - P_k) C: the part of C's columns outside span(k)."""
    return c - k @ (herm(k) @ c)


def _residual_values(q: Array, x: Array) -> Array:
    """Singular values of x - q q^H x, the part of span(x) outside span(q)."""
    return np.linalg.svd(_outside(x, q), compute_uv=False)


def _stickout(q: Grouped, x: Grouped) -> float:
    """Worst norm, over the positions where x has columns, of the part of
    span(x) outside span(q) (0.0 when there is none)."""
    qs, xs = _live((q, x), lambda _, b: b.shape[-1] > 0)
    return _top_singular(stacked(_outside, xs, qs))


def _side_by_side(u: Array, v: Array) -> Array:
    return np.concatenate([u, v], axis=-1)


def _difference_svd(q1: Array, q2: Array):
    """SVD of [q1, -q2]; the full Vᴴ matters only on a wide stack, and U is never read."""
    a = np.concatenate([q1, -q2], axis=-1)
    return np.linalg.svd(a, full_matrices=a.shape[-1] > a.shape[-2])


def _shared(q1: Array, v: Array) -> Array:
    """The shared directions q1 v of a meet, re-orthonormalised."""
    return np.linalg.qr(q1 @ v)[0]


def _meets(q1: Grouped, q2: Grouped) -> tuple[Grouped, Array]:
    """Orthonormal basis of span(q1) ∩ span(q2) at each position, one
    stacked SVD and one stacked QR per group, and per position the angle
    gap separating kept from dropped directions (+inf when unambiguous).

    A null vector (a; b) of [q1, -q2] means q1 a = q2 b, and its singular
    value equals 2 sin(theta/2) of the corresponding principal angle — a
    *linearly* accurate angle measure, unlike principal cosines which
    flatten out quadratically near zero.  Directions whose values are at
    most ``2 sin(COINCIDE_TOL / 2)`` count as shared.
    """
    cut = 2.0 * math.sin(0.5 * COINCIDE_TOL)
    gaps = np.full(q1.count, math.inf)
    members, parts = _aligned((q1, q2))
    live = [i for i, (a, b) in enumerate(parts) if a.shape[-1] and b.shape[-1]]
    pieces = [(parts[i][0][..., :0], members[i]) for i in range(len(parts)) if i not in live]
    shared = []
    if live:
        firsts, seconds = zip(*[parts[i] for i in live])
        where = tuple(members[i] for i in live)
        _, svals, vhs = stacked(_difference_svd, Grouped(firsts, where), Grouped(seconds, where))
        for q, s, vh, idx in zip(firsts, svals.stacks, vhs.stacks, where):
            n, m = vh.shape[-1], s.shape[-1]
            # s descends, then a wide stack's n - m zeros follow: all shared
            for kept, sel in _split(_above(s, cut)):
                x, y, v, pos = (a if sel is None else a[sel] for a in (q, s, vh, idx))
                k = n - kept
                if k == 0:
                    gaps[pos] = y[:, -1] - cut
                    pieces.append((x[..., :0], pos))
                    continue
                if k < n:  # the last kept value less the first shared one
                    gaps[pos] = y[:, n - k - 1] - (y[:, n - k] if n - k < m else 0.0)
                shared.append((x, herm(v[:, n - k :])[:, : q.shape[-1]], pos))
    if shared:
        xs, vs, where = zip(*shared)
        qs = stacked(_shared, Grouped(xs, where), Grouped(vs, where))
        pieces += zip(qs.stacks, qs.members)
    return _merge(pieces), gaps


def _largest(values: Array) -> Array:
    """Per matrix of a stack of singular values, the largest (0.0 for none)."""
    return values.max(axis=-1, initial=0.0)


def _product_values(a: Array, b: Array) -> Array:
    return np.linalg.svd(a @ b, compute_uv=False)


def _node_residuals(out: Array, values: Array, image: Array, kernel: Array) -> Array:
    """Per interior node of a group, the worse of two defects: the norm of
    the outgoing arrow ``out`` (singular ``values``) on the incoming image,
    and the projection defect between that image and the outgoing kernel,
    1.0 when their dimensions differ.  With equal dimensions the defect of
    the image outside the kernel is the sine of the largest principal
    angle, as is the reverse one (Golub & Van Loan, *Matrix Computations*,
    Thm 2.5.1), so it is measured in that one direction.

    Arrows are expected in unit scale (orthonormal node bases, normalised
    operators), so the composition is divided by max(1, |out|): a
    structurally-zero factor on either side then cannot amplify roundoff
    into a fake defect.
    """
    worst = np.zeros(len(out))
    if out.shape[-2] and image.shape[-1]:
        worst = _largest(_product_values(out, image)) / np.maximum(_largest(values), 1.0)
    if image.shape[-1] != kernel.shape[-1]:
        return np.maximum(worst, 1.0)
    if image.shape[-1]:
        worst = np.maximum(worst, _largest(_residual_values(kernel, image)))
    return worst


def chains_exactness(
    arrows: Sequence[Grouped], tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Array, Array, Array]:
    """Check exactness of chains 0 -> V_0 -> ... -> V_k -> 0, one per position.

    ``arrows[i]`` holds, at each position, the matrix of V_i -> V_{i+1} in
    orthonormal bases of the node spaces.  Returns a (nodes, positions)
    array of the residuals at the interior nodes: the worse of the
    composition norm and the principal-angle defect between the incoming
    image and the outgoing kernel, 1.0 where their dimensions differ.  Then,
    per position, the injectivity defect of the first arrow and the
    surjectivity defect of the last (0.0 clean, 1.0 not).  Each arrow is
    decomposed once: one full SVD per group gives its ranks (at unit
    scale, counted per group), images, kernels and norms.  Each node is
    checked by one stacked call per group of positions as well.
    """
    images, kernels, values = [], [], []
    for arrow in arrows:
        u, s, vh = stacked(np.linalg.svd, arrow)
        ranks = [_stack_ranks(v, tol, max(a.shape[1:]), 1.0) for v, a in zip(s.stacks, arrow.stacks)]
        images.append(_columns(u, ranks, lead=True))
        kernels.append(_columns(vh.map(herm), ranks, lead=False))
        values.append(s)
    nodes = np.zeros((len(arrows) - 1, arrows[0].count))
    for i, node in enumerate(nodes):
        checks = stacked(_node_residuals, arrows[i + 1], values[i + 1], images[i], kernels[i + 1])
        for r, idx in zip(checks.stacks, checks.members):
            node[idx] = r
    inj = np.not_equal(images[0].sizes(-1), arrows[0].sizes(-1)).astype(float)
    surj = np.not_equal(images[-1].sizes(-1), arrows[-1].sizes(-2)).astype(float)
    return nodes, inj, surj
