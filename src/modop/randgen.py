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

Each generator comes in two halves.  The draw half (``draw_map``,
``draw_endomorphism``, ...) makes every draw of one object from its
stream, a block's draws, in per-block order, before the next block's, and
returns a :class:`Pending`.  :func:`build` then builds a batch of such
objects together: each build step (a Haar unitary pair, a core, a
similarity, a polynomial, ...) runs once per key, its function, its
parameters and the shapes of its inputs, over the same-shape blocks of
every object in the batch.  The single-instance generators
(``random_map``, ...) are a batch of one, so there is one build path.
No bit moves: merged normal draws read the same stream, and stacked
LAPACK, BLAS and ufuncs equal per-matrix calls.  Every draw precedes the
build, so a draw whose size a decision would set uses the planted size:
:func:`draw_regular_data` draws the complements' mixes with T's planted
rank, and its build checks T's decided rank against it.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Sequence
from functools import wraps
from itertools import islice

import numpy as np

from .algebra import AlgebraShape
from .errors import StructureError
from .linmap import AdjointableMap
from .modules import Submodule
from .subspace import Grouped, _partition, herm
from .tolerances import DEFAULT_TOL, ToleranceConfig

Array = np.ndarray

__all__ = [
    "parse_shape",
    "random_map",
    "random_endomorphism",
    "random_commuting_pair",
    "random_low_rank",
    "random_submodule",
    "random_complement",
    "random_regular_data",
    "sheared_complement",
    "draw_map", "draw_endomorphism", "draw_commuting_pair", "draw_low_rank", "draw_submodule",
    "draw_sheared_complement", "draw_regular_data",
    "Pending",
    "build",
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


class _Step:
    """One build step of one object: ``fn(*params, *inputs)`` on each group
    of positions ``members[g]``, whose inputs ``args[g]`` are one list per
    input of arrays with a leading count axis (a block's draw, or a stack)."""

    __slots__ = ("fn", "params", "members", "args")

    def __init__(self, fn: Callable, params: tuple, members: Sequence[Array], args: list):
        self.fn, self.params, self.members, self.args = fn, params, members, args


def _per_block(fn: Callable, members: Sequence[Array], inputs: Sequence[tuple], *params) -> _Step:
    """A step over the groups ``members`` whose inputs are per position
    (a block's draws, say): ``inputs[b]`` holds position b's."""
    return _Step(fn, params, members, [
        tuple([a[None] for a in part] for part in zip(*[inputs[b] for b in idx.tolist()]))
        for idx in members])


def _on_stacks(fn: Callable, *operands: Grouped) -> _Step:
    """A step whose inputs are the stacks of built parts grouped alike."""
    return _Step(fn, (), operands[0].members, [
        tuple([s] for s in stacks) for stacks in zip(*(g.stacks for g in operands))])


# A drawn object whose build waits for :func:`build`: the generator of its
# build steps, which yields them a tuple at a time, is sent their results
# (one Grouped per step) and returns the object.
Pending = Generator


def _then(step: _Step, finish: Callable):
    """The steps of an object built by one step."""
    (groups,) = yield (step,)
    return finish(groups)


# Groups whose matrices have a larger side are built alone: there a call's
# flops outweigh its overhead, and merging would only hold more temporaries.
_MERGED_SIDE = 16


def _run(steps: Sequence[_Step]) -> list[Grouped]:
    """Each step's groups built, one call per key over the whole round.

    The key is the step's function, its parameters and the shapes of its
    inputs; a key's inputs are stacked in step order and its result is
    split back, a view per group.  A key's inputs are freed once it is built."""
    jobs: dict = {}
    for s, step in enumerate(steps):
        for g, args in enumerate(step.args):
            shapes = tuple(a[0].shape[1:] for a in args)
            key = (step.fn, step.params, shapes)
            if max(max(sh[-2:], default=0) for sh in shapes) > _MERGED_SIDE:
                key += (s, g)  # built alone
            slots, inputs = jobs.setdefault(key, ([], [[] for _ in args]))
            slots.append((s, g, len(step.members[g])))
            for into, arrays in zip(inputs, args):
                into.extend(arrays)
        step.args = None
    built = [[None] * len(step.members) for step in steps]
    for key in list(jobs):
        slots, inputs = jobs.pop(key)
        inputs = [a[0] if len(a) == 1 else np.concatenate(a) for a in inputs]  # frees the parts
        stack = key[0](*key[1], *inputs)
        del inputs
        start = 0
        for s, g, count in slots:
            built[s][g] = stack if len(slots) == 1 else stack[start : start + count]
            start += count
    return [Grouped(stacks, step.members) for stacks, step in zip(built, steps)]


def build(batch: Sequence[Sequence]) -> list[tuple]:
    """Each instance of ``batch`` (a tuple) with every :data:`Pending` in
    it built; other items pass unchanged.  The objects' steps run in
    rounds, each round one :func:`_run` over the steps every unfinished
    object asks for, so the same-shape blocks of the whole batch build in
    one call.  Stacked LAPACK, BLAS and ufuncs equal per-matrix calls, so
    every object is bitwise what building it alone gives.  An error in a
    round belongs to no one object and propagates."""
    out = [list(item) for item in batch]
    live = [(item, j, x) for item in out for j, x in enumerate(item) if isinstance(x, Pending)]
    sent: list = [None] * len(live)
    while live:
        asked = []
        for i, (item, j, steps) in enumerate(live):
            value, sent[i] = sent[i], None  # each result leaves with the object it built
            try:
                asked.append((item, j, steps, steps.send(value)))
            except StopIteration as done:
                item[j] = done.value
        live = [a[:3] for a in asked]
        results = iter(_run([step for a in asked for step in a[3]]))
        sent = [tuple(islice(results, len(a[3]))) for a in asked]
    return [tuple(item) for item in out]


def _alone(draw: Callable) -> Callable:
    """The generator that builds one object of ``draw`` alone: a batch of one."""

    @wraps(draw)
    def generate(*args, **kwargs):
        return build([(draw(*args, **kwargs),)])[0][0]

    return generate


def _map_blocks(svals: Array, zu: Array, zv: Array) -> Array:
    k = min(zu.shape[-1], zv.shape[-1])
    u, v = _unitaries(zu, zv)
    s = np.concatenate([np.exp(svals), np.zeros((len(zu), k - svals.shape[-1]))], axis=1)
    return np.multiply(u[..., :k], s[:, None, :], out=u[..., :k]) @ herm(v[..., :k])


def draw_map(
    shape: AlgebraShape,
    m: int,
    n: int,
    rng: np.random.Generator,
    *,
    rank_deficit: int = 0,
) -> Pending:
    """Random adjointable map; ``rank_deficit`` kills that many trailing
    singular values per block (clipped to the block size), leaving the
    kept ones in [0.5, 2] so the rank decision has a wide margin."""
    # per block, in stream order: the kept singular values, the left and the right unitary
    draws = [(rng.uniform(np.log(0.5), np.log(2.0), size=max(min(m, n) * nb - rank_deficit, 0)),
              rng.normal(size=(2, n * nb, n * nb)), rng.normal(size=(2, m * nb, m * nb)))
             for nb in shape.block_sizes]
    step = _per_block(_map_blocks, shape.size_groups, draws)
    return _then(step, lambda g: AdjointableMap._of_groups(shape, m, n, g))


def _core(nilpotent: tuple, uv: Array, svals: Array) -> Array:
    """U diag(svals) V*, padded with the nilpotent Jordan blocks."""
    k = svals.shape[-1]
    u, v = _unitaries(uv[:, :2], uv[:, 2:])
    invertible = np.multiply(u, np.exp(svals)[:, None, :], out=u) @ herm(v)
    dim = k + sum(nilpotent)
    out = np.zeros((len(uv), dim, dim), dtype=complex)
    out[:, :k, :k] = invertible
    for pos, size in zip(np.cumsum((k, *nilpotent)), nilpotent):
        out[:, pos : pos + size - 1, pos + 1 : pos + size] += np.eye(size - 1)
    return out


def _similarity(g1: Array, gvals: Array, g2: Array) -> Array:
    w1, w2 = _unitaries(g1, g2)
    return np.multiply(w1, np.exp(gvals)[:, None, :], out=w1) @ w2


def _conjugate(g: Array, c: Array) -> Array:
    return g @ c @ np.linalg.inv(g)


def draw_endomorphism(
    shape: AlgebraShape,
    m: int,
    rng: np.random.Generator,
    *,
    nilpotent: Sequence[int] = (),
) -> Pending:
    """Endomorphism with planted Jordan structure.

    Per block, an invertible part (singular values in [0.5, 2]) is
    padded with nilpotent Jordan blocks of the given sizes, then
    conjugated by a similarity of condition at most 10.  The Drazin
    index is generically the largest planted size (0 sizes -> invertible).
    """
    draws = []  # per block, in stream order: [core's u, v and values, similarity's g1, values, g2]
    for dim in (m * nb for nb in shape.block_sizes):
        k = dim - sum(nilpotent)
        if k < 0:
            raise StructureError(f"nilpotent sizes {tuple(nilpotent)} exceed block dimension {dim}")
        draws.append([(rng.normal(size=(4, k, k)), rng.uniform(np.log(0.5), np.log(2.0), size=k)),
                      (rng.normal(size=(2, dim, dim)), rng.uniform(0.0, np.log(10.0), size=dim),
                       rng.normal(size=(2, dim, dim)))])
    # the core is built before the similarity, and each part's draws leave with its build
    parts = (_per_block(_core, shape.size_groups, [d[0] for d in draws], tuple(nilpotent)),
             _per_block(_similarity, shape.size_groups, [d[1] for d in draws]))
    return _endomorphism(shape, m, parts)


def _endomorphism(shape: AlgebraShape, m: int, parts: tuple):
    cores, gs = yield parts
    (blocks,) = yield (_on_stacks(_conjugate, gs, cores),)
    return AdjointableMap._of_groups(shape, m, m, blocks)


def _cubic(x: Array, coeffs: Array) -> Array:
    """sum_j coeffs[j] x^(j+1) per matrix, summed from the zero map as maps are."""
    acc, p = np.zeros(x.shape, complex), x
    for j in range(3):
        if j:
            p = p @ x
        acc = acc + coeffs[:, j, None, None] * p
    return acc


def draw_commuting_pair(
    shape: AlgebraShape,
    m: int,
    rng: np.random.Generator,
    *,
    nilpotent: Sequence[int] = (),
) -> Pending:
    """Commuting pair (F, D): both are cubic polynomials of one common map X.

    Commutation is exact by construction (up to roundoff of the matrix
    products).  The polynomials have no constant term, so both maps
    inherit X's kernel, keeping the pair singular when a nilpotent part
    is planted.
    """
    x = draw_endomorphism(shape, m, rng, nilpotent=nilpotent)
    coeffs = []
    for _ in range(2):
        c = _complex(rng.normal(size=(2, 3, 1)))[:, 0]
        c[0] += np.sign(c[0].real + 1e-9)  # keep the linear coefficient away from zero
        coeffs.append(c)
    return _commuting_pair(x, coeffs)


def _commuting_pair(x_draw: Pending, coeffs: list):
    x = yield from x_draw
    polys = yield tuple(_Step(_cubic, (), x.groups.members, [
        ([s], [np.broadcast_to(c, (len(s), 3))]) for s in x.groups.stacks]) for c in coeffs)
    return tuple(AdjointableMap._of_groups(x.shape, x.m, x.m, p) for p in polys)


def _low_rank(scale: float, *xy: Array) -> Array:
    return sum(scale * (_complex(x) @ herm(_complex(y))) for x, y in zip(xy[::2], xy[1::2]))


def draw_low_rank(
    shape: AlgebraShape,
    m: int,
    n: int,
    rng: np.random.Generator,
    rank: int = 1,
    scale: float = 1.0,
) -> Pending | AdjointableMap:
    """Sum of ``rank`` module rank-one maps x <y, .>; image has at most
    ``rank`` generators, so the perturbation is finitely generated (the
    zero map, already built, when ``rank`` < 1)."""
    if rank < 1:
        return AdjointableMap.zero(shape, m, n)  # nothing to build
    terms = [[(rng.normal(size=(2, n * nb, nb)), rng.normal(size=(2, m * nb, nb)))
              for nb in shape.block_sizes] for _ in range(rank)]  # x then y; terms outermost
    draws = [tuple(z for term in terms for z in term[b]) for b in range(shape.num_blocks)]
    step = _per_block(_low_rank, shape.size_groups, draws, scale)
    return _then(step, lambda g: AdjointableMap._of_groups(shape, m, n, g))


def _haar(z: Array) -> Array:
    return _unitaries(z)[0]


def draw_submodule(
    shape: AlgebraShape,
    m: int,
    rng: np.random.Generator,
    ranks: Sequence[int] | None = None,
) -> Pending:
    """Random submodule with the given per-block generator multiplicities
    (uniform random multiplicities when omitted)."""
    if ranks is None:
        ranks = [int(rng.integers(0, m * nb + 1)) for nb in shape.block_sizes]
    for nb, r in zip(shape.block_sizes, ranks):
        if not 0 <= r <= m * nb:
            raise StructureError(f"multiplicity {r} out of range for block dimension {m * nb}")
    draws = [(rng.normal(size=(2, m * nb, m * nb)),) for nb in shape.block_sizes]
    step = _per_block(_haar, shape.size_groups, draws)
    return _then(step, lambda g: Submodule(
        shape, m, tuple(q[:, :r] for q, r in zip(g.mats, ranks))))


def _mixes(dims: Sequence[tuple[int, int]], rng: np.random.Generator) -> list:
    """Per block of (basis width, complement width), the normal pairs of a
    complement's mix, drawn only where both widths are positive."""
    return [rng.normal(size=(2, a, b)) if a and b else None for a, b in dims]


def _tilted(shear: float, c: Array, *mix: Array) -> Array:
    """Orthonormal bases of ``c``, its ``mix`` (if any) added at relative size ``shear``."""
    for z in mix:
        scale = shear / np.maximum(np.linalg.svd(z, compute_uv=False)[:, 0], 1e-300)
        c = c + z * scale[:, None, None]
    return np.linalg.qr(c)[0]


def _sheared(sub: Submodule, wc: Submodule, mixes: list, shear: float) -> _Step:
    """The step that orthonormalizes each of ``wc``'s bases with its mix
    from ``sub`` added (:func:`sheared_complement`), grouped by shape."""
    parts = [(c,) if z is None else (c, w @ _complex(z))
             for w, c, z in zip(sub.column_bases, wc.column_bases, mixes)]
    members = tuple(np.array(idx) for idx in _partition([(p[0].shape, len(p)) for p in parts]))
    return _per_block(_tilted, members, parts, shear)


def _check_shear(shear: float) -> None:
    if not 0.0 <= shear < 1.0:
        raise StructureError("shear must lie in [0, 1)")


def draw_sheared_complement(
    sub: Submodule,
    wc: Submodule,
    rng: np.random.Generator,
    *,
    shear: float = 0.3,
) -> Pending:
    """Complement of ``sub``, tilted off the orthogonal one, whose
    orthonormal bases are ``wc``: per block, in block order, directions
    inside the block's span (relative size ``shear``) are mixed into its
    complement basis.  The mix is orthogonal to ``wc``, so each mixed
    basis has singular values at least 1 and one QR per shape
    orthonormalizes it."""
    _check_shear(shear)
    widths = [(w.shape[1], c.shape[1]) for w, c in zip(sub.column_bases, wc.column_bases)]
    step = _sheared(sub, wc, _mixes(widths, rng), shear)
    return _then(step, lambda g: Submodule._of_groups(wc.shape, wc.m, g))


def draw_regular_data(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    *,
    rank_deficit: int = 1,
    shear: float = 0.3,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Pending:
    """(T, kernel complement, image complement) with bounded obliqueness —
    raw material for a regular-operator certificate on a plain matrix, a
    map over the one-block algebra (1).  The complements' mixes are drawn
    with T's planted rank; the build checks T's decided rank against it."""
    _check_shear(shear)
    t = draw_map(AlgebraShape((1,)), cols, rows, rng, rank_deficit=rank_deficit)
    rank = max(min(rows, cols) - rank_deficit, 0)
    mixes = (_mixes([(cols - rank, rank)], rng), _mixes([(rank, rows - rank)], rng))
    return _regular_data(t, rank, mixes, shear, tol)


def _regular_data(t_draw: Pending, rank: int, mixes: tuple, shear: float, tol: ToleranceConfig):
    t = yield from t_draw
    pairs = ((t.kernel(tol), t.coimage(tol)), (t.image(tol), t.cokernel(tol)))
    if pairs[0][1].dim != rank:
        raise StructureError(f"T decides rank {pairs[0][1].dim}, planted {rank}")
    bases = yield tuple(_sheared(w, c, z, shear) for (w, c), z in zip(pairs, mixes))
    return (t, *(Submodule._of_groups(c.shape, c.m, g) for (_, c), g in zip(pairs, bases)))


random_map = _alone(draw_map)
random_endomorphism = _alone(draw_endomorphism)
random_commuting_pair = _alone(draw_commuting_pair)
random_low_rank = _alone(draw_low_rank)
random_submodule = _alone(draw_submodule)
sheared_complement = _alone(draw_sheared_complement)
random_regular_data = _alone(draw_regular_data)


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
