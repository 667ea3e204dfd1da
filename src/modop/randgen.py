"""Seeded random instances for the property suites.

Every generator takes an explicit :class:`numpy.random.Generator`, so a
fixed seed reproduces the exact same operators byte for byte.  The two
design points that matter:

* hypothesis-satisfying instances are *constructed*, never rejection
  sampled — commuting pairs are polynomials of one common endomorphism,
  interesting Drazin structure comes from planting Jordan blocks behind
  a bounded-condition similarity, and rank deficits are planted by
  zeroing trailing singular values well separated from the rest;
* everything that affects conditioning (the similarity's condition
  number, complement shear) is bounded, so tolerance-based rank
  decisions in the suites sit on comfortable margins instead of coin
  flips.

Each generator makes a block's draws, in per-block order, before the next
block's, then builds each size group at once.  No bit moves: merged normal draws
read the same stream, and stacked LAPACK, BLAS and ufuncs equal per-matrix calls.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import StructureError
from .linmap import AdjointableMap
from .modules import Submodule
from .subspace import Grouped, herm, stacked
from .tolerances import DEFAULT_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "parse_shape",
    "random_element",
    "random_vector_flat",
    "random_map",
    "random_endomorphism",
    "random_commuting_pair",
    "random_low_rank",
    "random_submodule",
    "random_complement",
    "random_regular_data",
]


def parse_shape(text: str) -> AlgebraShape:
    """Parse "2,3" or "1^8" (or a mix, "1^4,2") into an algebra shape."""
    sizes: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        base, caret, count = token.partition("^")
        try:
            size, reps = int(base), (int(count) if caret else 1)
        except ValueError:
            size = reps = 0
        if reps < 1 or size < 1:
            raise StructureError(f"invalid shape specification {text!r}")
        sizes.extend([size] * reps)
    if not sizes:
        raise StructureError(f"invalid shape specification {text!r}")
    return AlgebraShape(tuple(sizes))


def _complex(z: Array) -> Array:
    """Standard complex normals from [real, imaginary] normal pairs on axis -3."""
    t = z[..., 1, :, :] * 1j  # (re + 1j * im) / sqrt 2, step by step, in one array
    return np.divide(np.add(z[..., 0, :, :], t, out=t), np.sqrt(2.0), out=t)


def _unitaries(*raws: Array) -> list[Array]:
    """Haar unitaries (Mezzadri, Notices AMS 54, 2007) per role from its normal pairs
    (count, 2, n, n); roles of one size n <= 32 share a QR, where a call outweighs its flops."""
    if len(raws) > 1 and (len({z.shape for z in raws}) > 1 or raws[0].shape[-1] > 32):
        return [_unitaries(z)[0] for z in raws]
    q, r = np.linalg.qr(_complex(np.stack(raws) if len(raws) > 1 else raws[0][None]))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return list(np.multiply(q, (d / np.abs(d))[..., None, :], out=q))


def _grouped(shape: AlgebraShape, draws: Sequence[tuple], build: Callable) -> Grouped:
    """``build(key, *stacks)`` per group, keyed by block size; each stack is a draw over it."""
    return shape.stacks(lambda nb, idx: build(nb, *(
        np.stack(p) if len(idx) > 1 else p[0][None] for p in zip(*[draws[b] for b in idx]))))


def random_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    blocks = tuple(_complex(rng.normal(size=(2, n, n))) for n in shape.block_sizes)
    return AlgebraElement(shape, blocks)


def random_vector_flat(shape: AlgebraShape, m: int, rng: np.random.Generator) -> Array:
    from .modules import flat_dim

    return _complex(rng.normal(size=(2, flat_dim(shape, m), 1)))[:, 0]


def random_map(
    shape: AlgebraShape,
    m: int,
    n: int,
    rng: np.random.Generator,
    *,
    rank_deficit: int = 0,
) -> AdjointableMap:
    """Random adjointable map; ``rank_deficit`` kills that many trailing
    singular values per block (clipped to the block size), leaving the
    kept ones in [0.5, 2] so the rank decision has a wide margin."""
    # per block, in stream order: the kept singular values, the left and the right unitary
    draws = [(rng.uniform(np.log(0.5), np.log(2.0), size=max(min(m, n) * nb - rank_deficit, 0)),
              rng.normal(size=(2, n * nb, n * nb)), rng.normal(size=(2, m * nb, m * nb)))
             for nb in shape.block_sizes]

    def build(_, svals: Array, zu: Array, zv: Array) -> Array:
        k = min(zu.shape[-1], zv.shape[-1])
        u, v = _unitaries(zu, zv)
        s = np.concatenate([np.exp(svals), np.zeros((len(zu), k - svals.shape[-1]))], axis=1)
        return np.multiply(u[..., :k], s[:, None, :], out=u[..., :k]) @ herm(v[..., :k])

    return AdjointableMap._of_groups(shape, m, n, _grouped(shape, draws, build))


def random_endomorphism(
    shape: AlgebraShape,
    m: int,
    rng: np.random.Generator,
    *,
    nilpotent: Sequence[int] = (),
) -> AdjointableMap:
    """Endomorphism with planted Jordan structure.

    Per block, an invertible part (singular values in [0.5, 2]) is
    padded with nilpotent Jordan blocks of the given sizes, then
    conjugated by a similarity of condition at most 10.  The Drazin
    index is generically the largest planted size (0 sizes -> invertible).
    """

    def core(nb: int, uv: Array, svals: Array) -> Array:
        k = svals.shape[-1]
        u, v = _unitaries(uv[:, :2], uv[:, 2:])
        invertible = np.multiply(u, np.exp(svals)[:, None, :], out=u) @ herm(v)
        out = np.zeros((len(uv), m * nb, m * nb), dtype=complex)
        out[:, :k, :k] = invertible
        for pos, size in zip(np.cumsum((k, *nilpotent)), nilpotent):
            out[:, pos : pos + size - 1, pos + 1 : pos + size] += np.eye(size - 1)
        return out

    def similarity(_, g1: Array, gvals: Array, g2: Array) -> Array:
        w1, w2 = _unitaries(g1, g2)
        return np.multiply(w1, np.exp(gvals)[:, None, :], out=w1) @ w2

    draws = []  # per block, in stream order: [core's u, v and values, similarity's g1, values, g2]
    for dim in (m * nb for nb in shape.block_sizes):
        k = dim - sum(nilpotent)
        if k < 0:
            raise StructureError(f"nilpotent sizes {tuple(nilpotent)} exceed block dimension {dim}")
        draws.append([(rng.normal(size=(4, k, k)), rng.uniform(np.log(0.5), np.log(2.0), size=k)),
                      (rng.normal(size=(2, dim, dim)), rng.uniform(0.0, np.log(10.0), size=dim),
                       rng.normal(size=(2, dim, dim)))])
    # each part leaves ``draws`` as it is built, freeing its draws as a per-block loop would
    cores = _grouped(shape, [d.pop(0) for d in draws], core)
    gs = _grouped(shape, [d.pop() for d in draws], similarity)
    blocks = stacked(lambda g, c: g @ c @ np.linalg.inv(g), gs, cores)
    return AdjointableMap._of_groups(shape, m, m, blocks)


def random_commuting_pair(
    shape: AlgebraShape,
    m: int,
    rng: np.random.Generator,
    *,
    nilpotent: Sequence[int] = (),
) -> tuple[AdjointableMap, AdjointableMap]:
    """Commuting pair (F, D): both are cubic polynomials of one common map X.

    Commutation is exact by construction (up to roundoff of the matrix
    products).  The polynomials have no constant term, so both maps
    inherit X's kernel, keeping the pair singular when a nilpotent part
    is planted.
    """
    x = random_endomorphism(shape, m, rng, nilpotent=nilpotent)

    def poly() -> AdjointableMap:
        coeffs = _complex(rng.normal(size=(2, 3, 1)))[:, 0]
        # keep the linear coefficient away from zero
        coeffs[0] += np.sign(coeffs[0].real + 1e-9)
        acc = AdjointableMap.zero(shape, m, m)
        p = x
        for c in coeffs:
            acc = acc + complex(c) * p
            p = p @ x
        return acc

    return poly(), poly()


def random_low_rank(
    shape: AlgebraShape,
    m: int,
    n: int,
    rng: np.random.Generator,
    rank: int = 1,
    scale: float = 1.0,
) -> AdjointableMap:
    """Sum of ``rank`` module rank-one maps x <y, .>; image has at most
    ``rank`` generators, so the perturbation is finitely generated."""
    if rank < 1:
        return AdjointableMap.zero(shape, m, n)
    terms = [[(rng.normal(size=(2, n * nb, nb)), rng.normal(size=(2, m * nb, nb)))
              for nb in shape.block_sizes] for _ in range(rank)]  # x then y; terms outermost
    draws = [tuple(z for term in terms for z in term[b]) for b in range(shape.num_blocks)]
    return AdjointableMap._of_groups(shape, m, n, _grouped(shape, draws, lambda _, *xy: sum(
        scale * (_complex(x) @ herm(_complex(y))) for x, y in zip(xy[::2], xy[1::2]))))


def random_submodule(
    shape: AlgebraShape,
    m: int,
    rng: np.random.Generator,
    ranks: Sequence[int] | None = None,
) -> Submodule:
    """Random submodule with the given per-block generator multiplicities
    (uniform random multiplicities when omitted)."""
    if ranks is None:
        ranks = [int(rng.integers(0, m * nb + 1)) for nb in shape.block_sizes]
    for nb, r in zip(shape.block_sizes, ranks):
        if not 0 <= r <= m * nb:
            raise StructureError(f"multiplicity {r} out of range for block dimension {m * nb}")
    draws = [(rng.normal(size=(2, m * nb, m * nb)),) for nb in shape.block_sizes]
    unitaries = _grouped(shape, draws, lambda _, z: _unitaries(z)[0])
    return Submodule(shape, m, tuple(q[:, :r] for q, r in zip(unitaries.mats, ranks)))


def random_complement(
    sub: Submodule,
    rng: np.random.Generator,
    *,
    shear: float = 0.3,
) -> Submodule:
    """Algebraic complement of ``sub``, tilted away from the orthogonal one:
    the :func:`sheared_complement` of ``sub`` and its orthogonal complement,
    which bounds the resulting projector norm by roughly 1/(1 - shear)."""
    return sheared_complement(sub, sub.complement(), rng, shear=shear)


def random_matrix(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    *,
    rank_deficit: int = 0,
) -> Array:
    """Plain complex matrix with a planted rank deficit (kept singular
    values in [0.5, 2]); one block of :func:`random_map`."""
    return random_map(AlgebraShape((1,)), cols, rows, rng, rank_deficit=rank_deficit).blocks[0]


def sheared_complement(
    sub: Submodule,
    wc: Submodule,
    rng: np.random.Generator,
    *,
    shear: float = 0.3,
) -> Submodule:
    """Complement of ``sub``, tilted off the orthogonal one, whose
    orthonormal bases are ``wc``: per block, in block order, directions
    inside the block's span (relative size ``shear``) are mixed into its
    complement basis.  The mix is orthogonal to ``wc``, so each mixed
    basis has singular values at least 1 and one QR per size group
    orthonormalizes it."""
    if not 0.0 <= shear < 1.0:
        raise StructureError("shear must lie in [0, 1)")
    mixed = []
    for w, c in zip(sub.column_bases, wc.column_bases):
        if w.shape[1] and c.shape[1]:
            mix = w @ _complex(rng.normal(size=(2, w.shape[1], c.shape[1])))
            c = c + mix * (shear / max(np.linalg.svd(mix, compute_uv=False)[0], 1e-300))
        mixed.append(c)
    bases = Grouped.of(mixed).map(lambda c: np.linalg.qr(c)[0])
    return Submodule._of_groups(wc.shape, wc.m, bases)


def random_regular_data(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    *,
    rank_deficit: int = 1,
    shear: float = 0.3,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[AdjointableMap, Submodule, Submodule]:
    """(T, kernel complement, image complement) with bounded obliqueness —
    raw material for a regular-operator certificate on a plain matrix, a
    map over the one-block algebra (1)."""
    t = random_map(AlgebraShape((1,)), cols, rows, rng, rank_deficit=rank_deficit)
    kc = sheared_complement(t.kernel(tol), t.coimage(tol), rng, shear=shear)
    return t, kc, sheared_complement(t.image(tol), t.cokernel(tol), rng, shear=shear)
