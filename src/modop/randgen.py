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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import StructureError
from .linmap import AdjointableMap
from .modules import Submodule
from .subspace import complement, kernel_image, orthonormal_image
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


def _cnormal(rng: np.random.Generator, rows: int, cols: int) -> Array:
    return (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(2.0)


def _unitary(rng: np.random.Generator, n: int) -> Array:
    q, r = np.linalg.qr(_cnormal(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement(shape, tuple(_cnormal(rng, n, n) for n in shape.block_sizes))


def random_vector_flat(shape: AlgebraShape, m: int, rng: np.random.Generator) -> Array:
    from .modules import flat_dim

    return _cnormal(rng, flat_dim(shape, m), 1)[:, 0]


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
    blocks = tuple(
        random_matrix(n * nb, m * nb, rng, rank_deficit=rank_deficit) for nb in shape.block_sizes
    )
    return AdjointableMap(shape, m, n, blocks)


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
    blocks = []
    for nb in shape.block_sizes:
        dim = m * nb
        nil_total = sum(nilpotent)
        if nil_total > dim:
            raise StructureError(f"nilpotent sizes {tuple(nilpotent)} exceed block dimension {dim}")
        core = np.zeros((dim, dim), dtype=complex)
        inv_dim = dim - nil_total
        if inv_dim:
            u = _unitary(rng, inv_dim)
            v = _unitary(rng, inv_dim)
            svals = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=inv_dim))
            core[:inv_dim, :inv_dim] = (u * svals) @ v.conj().T
        pos = inv_dim
        for size in nilpotent:
            core[pos : pos + size - 1, pos + 1 : pos + size] += np.eye(size - 1)
            pos += size
        g = (
            _unitary(rng, dim)
            * np.exp(rng.uniform(0.0, np.log(10.0), size=dim))
        ) @ _unitary(rng, dim)
        blocks.append(g @ core @ np.linalg.inv(g))
    return AdjointableMap(shape, m, m, tuple(blocks))


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
        coeffs = _cnormal(rng, 3, 1)[:, 0]
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
    blocks = [np.zeros((n * nb, m * nb), dtype=complex) for nb in shape.block_sizes]
    for _ in range(rank):
        for b, nb in enumerate(shape.block_sizes):
            x = _cnormal(rng, n * nb, nb)
            y = _cnormal(rng, m * nb, nb)
            blocks[b] += scale * (x @ y.conj().T)
    return AdjointableMap(shape, m, n, tuple(blocks))


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
    bases = []
    for nb, r in zip(shape.block_sizes, ranks):
        if not 0 <= r <= m * nb:
            raise StructureError(f"multiplicity {r} out of range for block dimension {m * nb}")
        q = _unitary(rng, m * nb)[:, :r]
        bases.append(q)
    return Submodule(shape, m, tuple(bases))


def random_complement(
    sub: Submodule,
    rng: np.random.Generator,
    *,
    shear: float = 0.3,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Submodule:
    """Algebraic complement of ``sub``, tilted away from the orthogonal one.

    Each block is a :func:`sheared_complement` of the block's column
    basis, which bounds the resulting projector norm by roughly
    1/(1 - shear).
    """
    bases = tuple(
        sheared_complement(w, complement(w), rng, shear=shear, tol=tol) for w in sub.column_bases
    )
    return Submodule(sub.shape, sub.m, bases)


def random_matrix(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    *,
    rank_deficit: int = 0,
) -> Array:
    """Plain complex matrix with a planted rank deficit (kept singular
    values in [0.5, 2]); one block of :func:`random_map`."""
    k = min(rows, cols)
    keep = max(k - rank_deficit, 0)
    svals = np.zeros(k)
    if keep:
        svals[:keep] = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=keep))
    return (_unitary(rng, rows)[:, :k] * svals) @ _unitary(rng, cols)[:, :k].conj().T


def sheared_complement(
    basis: Array,
    wc: Array,
    rng: np.random.Generator,
    *,
    shear: float = 0.3,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Array:
    """Complement of span(basis) in the space of its rows, tilted off the
    orthogonal one, with orthonormal basis ``wc``, by mixing in directions
    inside the span (relative size ``shear``)."""
    if not 0.0 <= shear < 1.0:
        raise StructureError("shear must lie in [0, 1)")
    basis = np.asarray(basis, dtype=complex)
    if wc.shape[1] == 0 or basis.shape[1] == 0:
        return wc
    mix = basis @ _cnormal(rng, basis.shape[1], wc.shape[1])
    mix *= shear / max(np.linalg.norm(mix, 2), 1e-300)
    return orthonormal_image(wc + mix, tol, scale=1.0)[0]


def random_regular_data(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    *,
    rank_deficit: int = 1,
    shear: float = 0.3,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[Array, Array, Array]:
    """(T, kernel complement, image complement) with bounded obliqueness —
    raw material for a regular-operator certificate on plain matrices."""
    t = random_matrix(rows, cols, rng, rank_deficit=rank_deficit)
    (kernel, image, row_span, left_kernel), _ = kernel_image(t, tol)
    kc = sheared_complement(kernel, row_span, rng, shear=shear, tol=tol)
    return t, kc, sheared_complement(image, left_kernel, rng, shear=shear, tol=tol)
