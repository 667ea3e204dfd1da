"""Complex-subspace numerics: the single SVD core everything routes through.

Subspaces of C^d are represented by matrices with orthonormal columns
(zero columns for the trivial subspace).  Every rank decision on
singular values funnels through one function, :func:`_decide`: it sets
the cutoff under the shared tolerance policy and records the margin by
which the decision was made.  :func:`svd_data`, :func:`orthonormal_image`,
:func:`null_space`, the chain maps of :func:`chain_exactness` (one full
SVD each) and the per-block maps of :mod:`modop.linmap` (which merge
their blocks' values first) all call it.

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
from dataclasses import dataclass

import numpy as np

from .errors import UnmetHypothesisError
from .tolerances import DEFAULT_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "SingularData",
    "svd_data",
    "op_norm",
    "orthonormal_image",
    "null_space",
    "complement",
    "projector",
    "principal_angles",
    "subspace_equal",
    "subspace_contains",
    "intersect",
    "subspace_sum",
    "min_modulus_restricted_raw",
    "ObliqueProjector",
    "oblique_projector",
    "NodeCheck",
    "chain_exactness",
]


def as_complex(a) -> Array:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def empty_basis(ambient: int) -> Array:
    return np.zeros((ambient, 0), dtype=np.complex128)


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
    scale: float
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
    vals = tuple(float(v) for v in values)
    smax = vals[0] if vals else 0.0
    ref = max(smax, scale if scale is not None else 0.0)
    threshold = tol.rank_threshold(ref, dim_ctx) if vals else 0.0
    rank = int(np.sum(values > threshold))
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
    return SingularData(vals, rank, gamma, threshold, ref, margin)


_NO_VALUES = np.zeros(0)


def svd_data(
    a: Array,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    dim_ctx: int | None = None,
    scale: float | None = None,
) -> SingularData:
    """Singular values plus the rank decision they support.

    ``dim_ctx`` is the ambient complex dimension entering the cutoff
    (defaults to ``max(a.shape)``); ``scale`` is the reference magnitude
    (defaults to the matrix's own largest singular value).
    """
    a = as_complex(a)
    s = np.linalg.svd(a, compute_uv=False) if a.size else _NO_VALUES
    return _decide(s, tol, dim_ctx if dim_ctx is not None else max(a.shape), scale)


def op_norm(a: Array) -> float:
    a = as_complex(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def orthonormal_image(
    a: Array,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    dim_ctx: int | None = None,
    scale: float | None = None,
) -> tuple[Array, SingularData]:
    """Orthonormal basis of the column span, with the rank decision."""
    a = as_complex(a)
    if a.size == 0:
        return empty_basis(a.shape[0]), _decide(_NO_VALUES, tol, 0, scale)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    data = _decide(s, tol, dim_ctx if dim_ctx is not None else max(a.shape), scale)
    return np.ascontiguousarray(u[:, : data.rank]), data


def null_space(
    a: Array,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    dim_ctx: int | None = None,
    scale: float | None = None,
) -> tuple[Array, SingularData]:
    """Orthonormal basis of the (right) kernel, with the rank decision."""
    a = as_complex(a)
    n = a.shape[1]
    if n == 0:
        return empty_basis(0), _decide(_NO_VALUES, tol, 0, scale)
    if a.shape[0] == 0:
        return np.eye(n, dtype=np.complex128), _decide(_NO_VALUES, tol, 0, scale)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    data = _decide(s, tol, dim_ctx if dim_ctx is not None else max(a.shape), scale)
    return np.ascontiguousarray(vh[data.rank :].conj().T), data


def complement(q: Array, ambient: int | None = None, tol: ToleranceConfig = DEFAULT_TOL) -> Array:
    """Orthonormal basis of the orthogonal complement of span(q)."""
    q = as_complex(q)
    amb = ambient if ambient is not None else q.shape[0]
    if q.shape[1] == 0:
        return np.eye(amb, dtype=np.complex128)
    basis, _ = null_space(q.conj().T, tol, dim_ctx=amb, scale=1.0)
    return basis


def projector(q: Array) -> Array:
    """Orthogonal projector onto span(q)."""
    q = as_complex(q)
    return q @ q.conj().T


def principal_angles(q1: Array, q2: Array) -> Array:
    """Principal angles (radians, ascending) between two spanned subspaces."""
    q1, q2 = as_complex(q1), as_complex(q2)
    if q1.shape[1] == 0 or q2.shape[1] == 0:
        return np.zeros(0)
    s = np.linalg.svd(q1.conj().T @ q2, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))


def subspace_equal(q1: Array, q2: Array, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Equality as subspaces: same dimension and worst sine below tol.

    Measured via projection defects in both directions rather than
    arccos of principal cosines; near zero angle the cosine is
    quadratically insensitive and would report sqrt(eps) noise.
    """
    if q1.shape[1] != q2.shape[1]:
        return False, math.inf
    if q1.shape[1] == 0:
        return True, 0.0
    q1, q2 = as_complex(q1), as_complex(q2)
    d12 = op_norm(q1 - q2 @ (q2.conj().T @ q1))
    d21 = op_norm(q2 - q1 @ (q1.conj().T @ q2))
    worst = max(d12, d21)
    return worst <= tol.angle_tol, worst


def subspace_contains(
    q_big: Array, q_small: Array, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, float]:
    """Whether span(q_small) lies inside span(q_big); residual = sin of worst angle."""
    q_big, q_small = as_complex(q_big), as_complex(q_small)
    if q_small.shape[1] == 0:
        return True, 0.0
    if q_big.shape[1] == 0:
        return False, 1.0
    resid = op_norm(q_small - q_big @ (q_big.conj().T @ q_small))
    return resid <= tol.angle_tol, resid


def intersect(
    q1: Array, q2: Array, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Array, float]:
    """Orthonormal basis of the intersection of two spanned subspaces.

    Computed from the small singular values of ``[q1, -q2]``: a null
    vector (a; b) means q1 a = q2 b, and the singular value equals
    2 sin(theta/2) of the corresponding principal angle — a *linearly*
    accurate angle measure, unlike principal cosines which flatten out
    quadratically near zero.  Directions below ``tol.coincide_tol``
    (radians) count as shared.  Returns the basis and the angle gap
    separating kept from dropped directions (+inf when unambiguous).
    """
    q1, q2 = as_complex(q1), as_complex(q2)
    amb = q1.shape[0]
    if q1.shape[1] == 0 or q2.shape[1] == 0:
        return empty_basis(amb), math.inf
    stacked = np.hstack([q1, -q2])
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    svals = np.zeros(stacked.shape[1])
    svals[: s.size] = s
    cut = 2.0 * math.sin(0.5 * tol.coincide_tol)
    keep = svals <= cut  # ascending tail of the spectrum
    k = int(np.sum(keep))
    if k == 0:
        gap = float(np.min(svals) - cut) if svals.size else math.inf
    elif k == len(svals):
        gap = math.inf
    else:
        dropped = np.sort(svals[~keep])
        kept = np.sort(svals[keep])
        gap = float(dropped[0] - kept[-1])
    if k == 0:
        return empty_basis(amb), gap
    coeff_a = vh[svals <= cut].conj().T[: q1.shape[1]]
    raw = q1 @ coeff_a
    # Columns have norm ~ 1/sqrt(2); re-orthonormalise via QR.
    qq, rr = np.linalg.qr(raw)
    return np.ascontiguousarray(qq[:, : raw.shape[1]]), gap


def subspace_sum(q1: Array, q2: Array, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Array, SingularData]:
    """Orthonormal basis of span(q1) + span(q2)."""
    q1, q2 = as_complex(q1), as_complex(q2)
    return orthonormal_image(np.hstack([q1, q2]), tol, scale=1.0)


def min_modulus_restricted_raw(q_m: Array, q_n: Array) -> float:
    """Smallest singular value of (I - P_M) restricted to span(q_n).

    +inf (degenerate) when span(q_n) is the zero space.
    """
    q_m, q_n = as_complex(q_m), as_complex(q_n)
    if q_n.shape[1] == 0:
        return math.inf
    resid = q_n - q_m @ (q_m.conj().T @ q_n) if q_m.shape[1] else q_n
    s = np.linalg.svd(resid, compute_uv=False)
    return float(s[-1])


@dataclass(frozen=True)
class ObliqueProjector:
    """Idempotent onto span(onto) along span(along), with conditioning data."""

    matrix: Array
    onto_dim: int
    along_dim: int
    cond: float
    norm: float

    @property
    def ill_posed(self) -> bool:
        return not math.isfinite(self.norm)


def oblique_projector(
    onto: Array, along: Array, tol: ToleranceConfig = DEFAULT_TOL
) -> ObliqueProjector:
    """Projector onto span(onto) along span(along).

    The two spans must be algebraic complements of the ambient space;
    anything else raises :class:`UnmetHypothesisError`.
    """
    onto, along = as_complex(onto), as_complex(along)
    amb = onto.shape[0]
    if onto.shape[1] + along.shape[1] != amb:
        raise UnmetHypothesisError(
            f"complement dimensions {onto.shape[1]}+{along.shape[1]} != ambient {amb}"
        )
    s_mat = np.hstack([onto, along])
    sdata = svd_data(s_mat, tol, scale=1.0)
    if sdata.rank < amb:
        raise UnmetHypothesisError("claimed complements share directions (singular basis matrix)")
    inv = np.linalg.inv(s_mat)
    e = onto @ inv[: onto.shape[1]]
    cond = sdata.values[0] / sdata.values[-1] if amb else 1.0
    return ObliqueProjector(e, onto.shape[1], along.shape[1], float(cond), op_norm(e))


def _arrow(a: Array, tol: ToleranceConfig) -> tuple[SingularData, Array, Array]:
    """Rank decision at unit scale, image basis and kernel basis of a chain map."""
    a = as_complex(a)
    if a.size == 0:
        data = _decide(_NO_VALUES, tol, 0, 1.0)
        return data, empty_basis(a.shape[0]), np.eye(a.shape[1], dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    data = _decide(s, tol, max(a.shape), 1.0)
    return data, u[:, : data.rank], vh[data.rank :].conj().T


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


def chain_exactness(
    dims: list[int],
    maps: list[Array],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[list[NodeCheck], float, float]:
    """Check exactness of 0 -> V_0 -> ... -> V_k -> 0 given coordinate maps.

    ``maps[i]`` is the matrix of V_i -> V_{i+1} in orthonormal bases of
    the node spaces.  Returns per-node records for the interior nodes
    plus the injectivity residual of the first map and the surjectivity
    residual of the last (as sin-style defects; 0 means clean).  Each map
    is decomposed once: one full SVD gives its rank, image, kernel and norm.
    """
    assert len(maps) == len(dims) - 1
    arrows = [_arrow(a, tol) for a in maps]
    inj_defect = 0.0 if arrows[0][0].rank == dims[0] else 1.0
    surj_defect = 0.0 if arrows[-1][0].rank == dims[-1] else 1.0
    nodes: list[NodeCheck] = []
    for i in range(1, len(dims) - 1):
        out = maps[i]
        im_data, im_basis, _ = arrows[i - 1]
        out_data, _, ker_basis = arrows[i]
        # Residual of out on the *orthonormalised* image.  Maps are expected
        # in unit scale (orthonormal node bases, normalised operators), so
        # divide by max(1, |out|): a structurally-zero factor on either side
        # then cannot amplify roundoff into a fake defect.
        if im_basis.shape[1] and out.size:
            comp = op_norm(out @ im_basis) / max(out_data.smax, 1.0)
        else:
            comp = 0.0
        if im_basis.shape[1] == 0 and ker_basis.shape[1] == 0:
            gap = 0.0
        elif im_basis.shape[1] != ker_basis.shape[1]:
            gap = 1.0
        else:
            _, gap = subspace_equal(im_basis, ker_basis, tol)
        nodes.append(
            NodeCheck(
                dim=dims[i],
                incoming_rank=im_data.rank,
                outgoing_kernel_dim=ker_basis.shape[1],
                composition_residual=float(comp),
                angle_gap=float(gap),
            )
        )
    return nodes, inj_defect, surj_defect
