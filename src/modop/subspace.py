"""Complex-subspace numerics: the single SVD core everything routes through.

Subspaces of C^d are represented by matrices with orthonormal columns
(zero columns for the trivial subspace).  Every rank decision on
singular values funnels through one function, :func:`_decide`: it sets
the cutoff under the shared tolerance policy and records the margin by
which the decision was made.  :func:`svd_datas`, :func:`orthonormal_images`,
:func:`null_spaces`, the chain maps of :func:`chains_exactness` and the
regular operators of :mod:`modop.banach` (one full SVD each) call it once
per matrix.  The maps of :mod:`modop.linmap` call it once per block family:
a map's records and each step of its power chain merge the values of all
blocks into one decision.

Each operation has one form, on a list of matrices (one per algebra
block, one per arrow, or the independent operands of one step of the
flat calculus of :mod:`modop.banach`).  :func:`stacked` sorts the
matrices by their full (rows, cols) shape and makes one stacked LAPACK
or BLAS call per group, so the number of numpy calls grows with the
number of distinct block shapes, not with the number of blocks.  Stacked
output is bitwise equal to the per-matrix output, so grouping moves no
digit; a list of one matrix makes the plain numpy call.  A matrix with a
zero dimension takes the same path: numpy gives it an empty image, an
identity kernel and no singular values, so its margin is +inf.

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
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .tolerances import COINCIDE_TOL, DEFAULT_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "SingularData",
    "stacked",
    "svd_datas",
    "op_norm",
    "orthonormal_images",
    "null_spaces",
    "complement",
    "residual_values",
    "subspace_equals",
    "intersections",
    "NodeCheck",
    "chains_exactness",
]


def as_complex(a) -> Array:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def empty_basis(ambient: int) -> Array:
    return np.zeros((ambient, 0), dtype=np.complex128)


def herm(a: Array) -> Array:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def stacked(fn: Callable, *operands: Sequence[Array], **kwargs) -> list:
    """``[fn(*mats, **kwargs) for mats in zip(*operands)]`` with one call of
    ``fn`` per group of items whose matrices share their full shapes.

    ``fn`` is a numpy routine that maps over leading stack axes
    (``np.linalg.svd``, ``qr``, ``inv``, ``np.matmul`` or an expression of
    them).  Each group of two or more is passed as 3-D stacks and the
    results are sliced back into input order (tuple results, such as an
    SVD, per item as tuples); stacked LAPACK and BLAS output is bitwise
    equal to the per-matrix output.  A group of one is computed on its own,
    as before grouping: numpy's stacked SVD costs a few microseconds more
    per call than the plain one, which a lone matrix would pay for nothing.
    Matrices with a zero dimension are grouped like any other: numpy's
    routines accept empty stacks.
    Groups are keyed by shape alone: the operands are complex128, as
    everywhere in modop.
    """
    keys = [a.shape for a in operands[0]]
    for op in operands[1:]:
        keys = [k + a.shape for k, a in zip(keys, op)]
    if len(set(keys)) == len(keys):  # every matrix alone in its group
        return [fn(*mats, **kwargs) for mats in zip(*operands)]
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out: list = [None] * len(keys)
    for key, idx in groups.items():
        if len(idx) > 1:
            res = fn(*(np.array([op[i] for i in idx]) for op in operands), **kwargs)
            for i, r in zip(idx, zip(*res) if isinstance(res, tuple) else res):
                out[i] = r
    return [fn(*mats, **kwargs) if r is None else r for r, mats in zip(out, zip(*operands))]


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
    """
    vals = tuple(values.tolist())
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


def svd_datas(
    mats: Sequence[Array],
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    scale: float | None = None,
) -> list[SingularData]:
    """Singular values of each matrix plus the rank decision they support,
    one stacked SVD per shape group.

    The cutoff's dimension is ``max(a.shape)`` per matrix; ``scale`` is the
    reference magnitude (defaults to each matrix's own largest singular
    value).
    """
    return [
        _decide(s, tol, max(a.shape), scale)
        for a, s in zip(mats, stacked(np.linalg.svd, mats, compute_uv=False))
    ]


def op_norm(a: Array) -> float:
    return float(np.linalg.svd(as_complex(a), compute_uv=False).max(initial=0.0))


def orthonormal_images(
    mats: Sequence[Array],
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    scale: float | None = None,
) -> list[tuple[Array, SingularData]]:
    """Orthonormal basis of the column span of each matrix, with the rank
    decision; one stacked SVD per shape group."""
    out = []
    for a, (u, s, _) in zip(mats, stacked(np.linalg.svd, mats, full_matrices=False)):
        data = _decide(s, tol, max(a.shape), scale)
        out.append((np.ascontiguousarray(u[:, : data.rank]), data))
    return out


def null_spaces(
    mats: Sequence[Array],
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    scale: float | None = None,
) -> list[tuple[Array, SingularData]]:
    """Orthonormal basis of the (right) kernel of each matrix, with the rank
    decision; one stacked SVD per shape group."""
    out = []
    for a, (_, s, vh) in zip(mats, stacked(np.linalg.svd, mats)):
        data = _decide(s, tol, max(a.shape), scale)
        out.append((np.ascontiguousarray(vh[data.rank :].conj().T), data))
    return out


def complement(q: Array) -> Array:
    """Orthonormal basis of the orthogonal complement of span(q), decided
    at unit scale."""
    return null_spaces([herm(q)], scale=1.0)[0][0]


def _residual_values(q: Array, x: Array) -> Array:
    return np.linalg.svd(x - q @ (herm(q) @ x), compute_uv=False)


def residual_values(qs: Sequence[Array], xs: Sequence[Array]) -> list[Array]:
    """Singular values of x - q q^H x, the part of span(x) outside span(q),
    for each pair: one stacked SVD per shape group."""
    return stacked(_residual_values, qs, xs)


def subspace_equals(
    q1s: Sequence[Array], q2s: Sequence[Array], tol: ToleranceConfig = DEFAULT_TOL
) -> list[tuple[bool, float]]:
    """Equality as subspaces, pair by pair: same dimension and worst sine
    below tol.

    Measured via projection defects in both directions rather than
    arccos of principal cosines; near zero angle the cosine is
    quadratically insensitive and would report sqrt(eps) noise.
    """
    live = [i for i, (a, b) in enumerate(zip(q1s, q2s)) if a.shape[1] == b.shape[1] > 0]
    a, b = [q1s[i] for i in live], [q2s[i] for i in live]
    d12 = iter(residual_values(b, a))
    d21 = iter(residual_values(a, b))
    out = []
    for q1, q2 in zip(q1s, q2s):
        if q1.shape[1] != q2.shape[1]:
            out.append((False, math.inf))
        elif q1.shape[1] == 0:
            out.append((True, 0.0))
        else:
            worst = max(float(next(d12)[0]), float(next(d21)[0]))
            out.append((worst <= tol.angle_tol, worst))
    return out


def _difference_svd(q1: Array, q2: Array):
    return np.linalg.svd(np.concatenate([q1, -q2], axis=-1), full_matrices=True)


def _meet(q1: Array, res, cut: float) -> tuple[Array | None, float]:
    """Intersection of span(q1) and span(q2) from the full SVD ``res`` of
    [q1, -q2]: a basis with columns of norm ~ 1/sqrt(2) (None when the
    intersection is trivial) and the angle gap behind the decision.

    A null vector (a; b) means q1 a = q2 b, and the singular value equals
    2 sin(theta/2) of the corresponding principal angle — a *linearly*
    accurate angle measure, unlike principal cosines which flatten out
    quadratically near zero.  Values at or below ``cut`` count as shared.
    """
    _, s, vh = res
    # descending values, padded with the zeros of a wide stack
    svals = s.tolist() + [0.0] * (vh.shape[0] - s.size)
    n = len(svals)
    k = sum(1 for v in svals if v <= cut)
    if k == 0:
        return None, svals[-1] - cut
    gap = svals[n - k - 1] - svals[n - k] if k < n else math.inf
    return q1 @ vh[n - k :].conj().T[: q1.shape[1]], gap


def intersections(q1s: Sequence[Array], q2s: Sequence[Array]) -> list[tuple[Array, float]]:
    """Orthonormal basis of the intersection of span(q1) and span(q2) for
    each pair, one stacked SVD and one stacked QR per shape group.

    Computed from the small singular values of ``[q1, -q2]`` (see
    :func:`_meet`); directions below ``COINCIDE_TOL`` (radians) count
    as shared.  Each pair also gets the angle gap separating kept from
    dropped directions (+inf when unambiguous).
    """
    cut = 2.0 * math.sin(0.5 * COINCIDE_TOL)
    out = [(empty_basis(q.shape[0]), math.inf) for q in q1s]
    live = [i for i, (a, b) in enumerate(zip(q1s, q2s)) if a.shape[1] and b.shape[1]]
    svds = stacked(_difference_svd, [q1s[i] for i in live], [q2s[i] for i in live])
    raws = {}
    for i, res in zip(live, svds):
        raw, gap = _meet(q1s[i], res, cut)
        out[i] = (out[i][0], gap)
        if raw is not None:
            raws[i] = raw
    # Re-orthonormalise the shared directions via QR.
    for (i, raw), (qq, _) in zip(raws.items(), stacked(np.linalg.qr, list(raws.values()))):
        out[i] = (np.ascontiguousarray(qq[:, : raw.shape[1]]), out[i][1])
    return out


@dataclass(frozen=True)
class NodeCheck:
    """Exactness bookkeeping at one interior node of a finite chain."""

    dim: int
    incoming_rank: int
    outgoing_kernel_dim: int
    composition_residual: float
    angle_gap: float

    @property
    def exact(self) -> bool:
        return self.incoming_rank == self.outgoing_kernel_dim

    @property
    def residual(self) -> float:
        return max(self.composition_residual, self.angle_gap)


def _product_values(a: Array, b: Array) -> Array:
    return np.linalg.svd(a @ b, compute_uv=False)


def chains_exactness(
    chains: Sequence[tuple[Sequence[int], Sequence[Array]]],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[tuple[list[NodeCheck], float, float]]:
    """Check exactness of chains 0 -> V_0 -> ... -> V_k -> 0 given coordinate maps.

    ``chains`` holds (dims, maps) pairs; ``maps[i]`` is the matrix of
    V_i -> V_{i+1} in orthonormal bases of the node spaces.  Returns per
    chain the records of its interior nodes plus the injectivity residual
    of the first map and the surjectivity residual of the last (as
    sin-style defects; 0 means clean).  Each map is decomposed once: one
    full SVD gives its rank (at unit scale), image, kernel and norm.  The
    SVDs, node compositions and node comparisons of all chains are
    grouped by shape.
    """
    assert all(len(maps) == len(dims) - 1 for dims, maps in chains)
    flat = [a for _, maps in chains for a in maps]
    datas, images, kernels = [], [], []
    for a, (u, s, vh) in zip(flat, stacked(np.linalg.svd, flat)):
        datas.append(_decide(s, tol, max(a.shape), 1.0))
        images.append(u[:, : datas[-1].rank])
        kernels.append(vh[datas[-1].rank :].conj().T)
    # interior nodes, by the index in ``flat`` of their incoming map
    nodes, first = [], 0
    for _, maps in chains:
        nodes.extend(range(first, first + len(maps) - 1))
        first += len(maps)
    # Residual of the outgoing map on the *orthonormalised* image.  Maps are
    # expected in unit scale (orthonormal node bases, normalised operators),
    # so divide by max(1, |out|): a structurally-zero factor on either side
    # then cannot amplify roundoff into a fake defect.
    composed = [i for i in nodes if images[i].shape[1] and flat[i + 1].size]
    norms = stacked(_product_values, [flat[i + 1] for i in composed], [images[i] for i in composed])
    comps = dict.fromkeys(nodes, 0.0)
    for i, vals in zip(composed, norms):
        comps[i] = float(vals[0]) / max(datas[i + 1].smax, 1.0)
    gaps = {i: 0.0 if images[i].shape[1] == kernels[i + 1].shape[1] else 1.0 for i in nodes}
    compared = [i for i in nodes if images[i].shape[1] == kernels[i + 1].shape[1] > 0]
    equal = subspace_equals([images[i] for i in compared], [kernels[i + 1] for i in compared], tol)
    for i, (_, gap) in zip(compared, equal):
        gaps[i] = gap
    out, first = [], 0
    for dims, maps in chains:
        checks = [
            NodeCheck(
                dim=dims[i - first + 1],
                incoming_rank=datas[i].rank,
                outgoing_kernel_dim=kernels[i + 1].shape[1],
                composition_residual=float(comps[i]),
                angle_gap=float(gaps[i]),
            )
            for i in range(first, first + len(maps) - 1)
        ]
        last = first + len(maps) - 1
        inj = 0.0 if datas[first].rank == dims[0] else 1.0
        surj = 0.0 if datas[last].rank == dims[-1] else 1.0
        out.append((checks, inj, surj))
        first += len(maps)
    return out
