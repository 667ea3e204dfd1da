"""The random generators build each size group at once and draw exactly
what a per-block loop draws: every operator, submodule and generator
state after the call is bitwise equal to the per-block reference
generators below, which build one block at a time.  A batch built in one
``build`` call gives every object bitwise as it is built alone."""

import json
import math
import re

import numpy as np
import pytest

from modop.errors import StructureError
from modop.linmap import AdjointableMap
from modop.randgen import (
    build,
    draw_commuting_pair,
    draw_endomorphism,
    draw_low_rank,
    draw_map,
    draw_regular_data,
    draw_sheared_complement,
    draw_submodule,
    parse_shape,
    random_commuting_pair,
    random_endomorphism,
    random_low_rank,
    random_map,
    random_matrix,
    random_regular_data,
    random_submodule,
    sheared_complement,
)
from modop.serialize import operator_to_jsonable
from modop.tolerances import ToleranceConfig

SHAPES = ("2,3", "1^6,2^3,3", "1^32", "16", "1", "4")
SEEDS = range(5)


# -- per-block reference generators: one block, one QR per unitary ----------


def _ref_cnormal(rng, rows, cols):
    return (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))) / np.sqrt(2.0)


def _ref_unitary(rng, n):
    q, r = np.linalg.qr(_ref_cnormal(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ref_matrix(rows, cols, rng, rank_deficit=0):
    k = min(rows, cols)
    keep = max(k - rank_deficit, 0)
    svals = np.zeros(k)
    if keep:
        svals[:keep] = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=keep))
    return (_ref_unitary(rng, rows)[:, :k] * svals) @ _ref_unitary(rng, cols)[:, :k].conj().T


def _ref_map(shape, m, n, rng, rank_deficit=0):
    return [_ref_matrix(n * nb, m * nb, rng, rank_deficit) for nb in shape.block_sizes]


def _ref_endomorphism(shape, m, rng, nilpotent=()):
    blocks = []
    for nb in shape.block_sizes:
        dim = m * nb
        core = np.zeros((dim, dim), dtype=complex)
        inv_dim = dim - sum(nilpotent)
        if inv_dim:
            u = _ref_unitary(rng, inv_dim)
            v = _ref_unitary(rng, inv_dim)
            svals = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=inv_dim))
            core[:inv_dim, :inv_dim] = (u * svals) @ v.conj().T
        pos = inv_dim
        for size in nilpotent:
            core[pos : pos + size - 1, pos + 1 : pos + size] += np.eye(size - 1)
            pos += size
        g = (
            _ref_unitary(rng, dim) * np.exp(rng.uniform(0.0, np.log(10.0), size=dim))
        ) @ _ref_unitary(rng, dim)
        blocks.append(g @ core @ np.linalg.inv(g))
    return blocks


def _ref_commuting_pair(shape, m, rng, nilpotent=()):
    x = AdjointableMap(shape, m, m, tuple(_ref_endomorphism(shape, m, rng, nilpotent)))

    def poly():
        coeffs = _ref_cnormal(rng, 3, 1)[:, 0]
        coeffs[0] += np.sign(coeffs[0].real + 1e-9)
        acc = AdjointableMap.zero(shape, m, m)
        p = x
        for c in coeffs:
            acc = acc + complex(c) * p
            p = p @ x
        return acc

    return poly().blocks, poly().blocks


def _ref_low_rank(shape, m, n, rng, rank=1, scale=1.0):
    blocks = [np.zeros((n * nb, m * nb), dtype=complex) for nb in shape.block_sizes]
    for _ in range(rank):
        for b, nb in enumerate(shape.block_sizes):
            x = _ref_cnormal(rng, n * nb, nb)
            y = _ref_cnormal(rng, m * nb, nb)
            blocks[b] += scale * (x @ y.conj().T)
    return blocks


def _ref_submodule(shape, m, rng, ranks=None):
    if ranks is None:
        ranks = [int(rng.integers(0, m * nb + 1)) for nb in shape.block_sizes]
    return [_ref_unitary(rng, m * nb)[:, :r] for nb, r in zip(shape.block_sizes, ranks)]


# -- comparison ------------------------------------------------------------


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for b, (a, r) in enumerate(zip(got, want)):
        r = np.asarray(r, dtype=complex)
        assert a.shape == r.shape, f"block {b}"
        assert a.tobytes() == r.tobytes(), f"block {b} differs"


def _same_draws(seed, make, reference):
    """``make`` and ``reference`` on two generators of one seed: their
    results, and the generators' states after the call."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = make(rng), reference(ref)
    assert rng.bit_generator.state == ref.bit_generator.state
    return got, want


def _nilpotent_cases(shape, m):
    """No nilpotent part, small Jordan blocks, and a list that fills the
    smallest block."""
    fill = m * min(shape.block_sizes)
    return [(), (1,), (fill,), tuple([2] * (fill // 2) + [1] * (fill % 2))]


def _seeded(cases):
    """Every case once and every seed at least once: (seed, case) pairs."""
    count = max(len(cases), len(SEEDS))
    return [(SEEDS[i % len(SEEDS)], cases[i % len(cases)]) for i in range(count)]


@pytest.mark.parametrize("text", SHAPES)
def test_random_map_matches_per_block_reference(text):
    shape = parse_shape(text)
    cases = [
        (m, n, deficit)
        for m, n in ((2, 2), (3, 2), (1, 3))
        for full in [min(m, n) * max(shape.block_sizes)]
        for deficit in sorted({0, 1, full, full + 1})
    ]
    for seed, (m, n, deficit) in _seeded(cases):
        got, want = _same_draws(
            seed,
            lambda r: random_map(shape, m, n, r, rank_deficit=deficit),
            lambda r: _ref_map(shape, m, n, r, deficit),
        )
        _assert_bitwise(got.blocks, want)


@pytest.mark.parametrize("rows, cols", [(1, 1), (5, 5), (6, 4), (3, 7), (40, 40), (33, 40)])
def test_random_matrix_matches_per_block_reference(rows, cols):
    k = min(rows, cols)
    for seed, deficit in _seeded(sorted({0, 1, k // 2, k, k + 1})):
        got, want = _same_draws(
            seed,
            lambda r: random_matrix(rows, cols, r, rank_deficit=deficit),
            lambda r: _ref_matrix(rows, cols, r, deficit),
        )
        _assert_bitwise([got], [want])


@pytest.mark.parametrize("text", SHAPES)
def test_random_endomorphism_matches_per_block_reference(text):
    shape = parse_shape(text)
    ms = (1, 2, 3) if text == "16" else (1, 2)  # m = 3: one QR per role at n = 48
    cases = [(m, nil) for m in ms for nil in _nilpotent_cases(shape, m)]
    for seed, (m, nil) in _seeded(cases):
        got, want = _same_draws(
            seed,
            lambda r: random_endomorphism(shape, m, r, nilpotent=nil),
            lambda r: _ref_endomorphism(shape, m, r, nil),
        )
        _assert_bitwise(got.blocks, want)


@pytest.mark.parametrize("text", SHAPES)
def test_random_commuting_pair_matches_per_block_reference(text):
    shape = parse_shape(text)
    for seed, nil in _seeded(_nilpotent_cases(shape, 2)):
        got, want = _same_draws(
            seed,
            lambda r: random_commuting_pair(shape, 2, r, nilpotent=nil),
            lambda r: _ref_commuting_pair(shape, 2, r, nil),
        )
        _assert_bitwise(got[0].blocks, want[0])
        _assert_bitwise(got[1].blocks, want[1])


@pytest.mark.parametrize("text", SHAPES)
def test_random_low_rank_matches_per_block_reference(text):
    shape = parse_shape(text)
    cases = [(m, n, rank) for m, n in ((2, 2), (3, 1)) for rank in (0, 1, 3)]
    for seed, (m, n, rank) in _seeded(cases):
        got, want = _same_draws(
            seed,
            lambda r: random_low_rank(shape, m, n, r, rank=rank, scale=0.5),
            lambda r: _ref_low_rank(shape, m, n, r, rank, 0.5),
        )
        _assert_bitwise(got.blocks, want)


@pytest.mark.parametrize("text", SHAPES)
def test_random_submodule_matches_per_block_reference(text):
    shape = parse_shape(text)
    dims = [2 * nb for nb in shape.block_sizes]
    cases = [None, [0] * len(dims), dims, [b % (d + 1) for b, d in enumerate(dims)]]
    for seed, ranks in _seeded(cases):
        got, want = _same_draws(
            seed,
            lambda r: random_submodule(shape, 2, r, ranks=ranks),
            lambda r: _ref_submodule(shape, 2, r, ranks),
        )
        _assert_bitwise(got.column_bases, want)


def test_endomorphism_runs_two_qr_calls_per_size_group(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    shape = parse_shape("1^32")
    rngs = [np.random.default_rng(seed) for seed in range(3)]
    build([(draw_endomorphism(shape, 4, r, nilpotent=(2, 1)),) for r in rngs])
    # across the batch: one QR per build key, the core's and the similarity's
    # (the two roles of each share it)
    assert len(calls) == 2 * len(shape.size_groups)
    # all four unitaries of every block of every instance
    assert sum(math.prod(s[:-2]) for s in calls) == 3 * 4 * 32


def _flat(obj):
    """Every matrix of a built object: map blocks, submodule bases, or
    those of each item of a tuple, in order."""
    if isinstance(obj, tuple):
        return [a for item in obj for a in _flat(item)]
    return list(getattr(obj, "blocks", None) or obj.column_bases)


def _batch_cases():
    """(draw, the single-instance generator, the per-block reference or
    None) on one generator: mixed shapes, m, rank deficits, nilpotent
    sizes, regular-data dimensions, commuting pairs and drawn ranks, with
    blocks of one size shared between instances."""
    s23, mixed, one, big = (parse_shape(t) for t in ("2,3", "1^6,2^3,3", "1", "16"))
    sub = random_submodule(mixed, 2, np.random.default_rng(99))
    cases = []
    for shape, m, n, deficit in ((s23, 2, 3, 1), (s23, 2, 3, 0), (mixed, 2, 3, 1), (s23, 3, 2, 2),
                                 (big, 2, 2, 3)):
        cases.append((lambda r, a=(shape, m, n, deficit): draw_map(*a[:3], r, rank_deficit=a[3]),
                      lambda r, a=(shape, m, n, deficit): random_map(*a[:3], r, rank_deficit=a[3]),
                      lambda r, a=(shape, m, n, deficit): _ref_map(*a[:3], r, a[3])))
    for shape, m, nil in ((s23, 2, ()), (s23, 2, (2, 1)), (mixed, 2, (1,)), (mixed, 2, (2,)),
                          (s23, 2, (2, 1))):
        cases.append((lambda r, a=(shape, m, nil): draw_endomorphism(*a[:2], r, nilpotent=a[2]),
                      lambda r, a=(shape, m, nil): random_endomorphism(*a[:2], r, nilpotent=a[2]),
                      lambda r, a=(shape, m, nil): _ref_endomorphism(*a[:2], r, a[2])))
    for shape, m, nil in ((one, 6, (2,)), (one, 8, (3, 1)), (one, 6, (1,)), (s23, 2, (1,))):
        cases.append((lambda r, a=(shape, m, nil): draw_commuting_pair(*a[:2], r, nilpotent=a[2]),
                      lambda r, a=(shape, m, nil): random_commuting_pair(*a[:2], r, nilpotent=a[2]),
                      lambda r, a=(shape, m, nil): sum(_ref_commuting_pair(*a[:2], r, a[2]), ())))
    for shape, m, n, rank in ((s23, 2, 3, 1), (s23, 2, 3, 2), (mixed, 3, 1, 1)):
        cases.append((lambda r, a=(shape, m, n, rank): draw_low_rank(*a[:3], r, a[3], 0.8),
                      lambda r, a=(shape, m, n, rank): random_low_rank(*a[:3], r, a[3], 0.8),
                      lambda r, a=(shape, m, n, rank): _ref_low_rank(*a[:3], r, a[3], 0.8)))
    for shape, m, ranks in ((s23, 2, None), (mixed, 2, None), (s23, 2, None), (one, 12, (4,))):
        cases.append((lambda r, a=(shape, m, ranks): draw_submodule(*a[:2], r, ranks=a[2]),
                      lambda r, a=(shape, m, ranks): random_submodule(*a[:2], r, ranks=a[2]),
                      lambda r, a=(shape, m, ranks): _ref_submodule(*a[:2], r, a[2])))
    for rows, cols, deficit in ((7, 6, 1), (6, 7, 2), (7, 7, 1), (7, 6, 1), (3, 3, 3)):
        cases.append((lambda r, a=(rows, cols, deficit): draw_regular_data(*a[:2], r, rank_deficit=a[2]),
                      lambda r, a=(rows, cols, deficit): random_regular_data(*a[:2], r, rank_deficit=a[2]),
                      None))
    for shear in (0.5, 0.5, 0.2):
        cases.append((lambda r, h=shear: draw_sheared_complement(sub, sub.complement(), r, shear=h),
                      lambda r, h=shear: sheared_complement(sub, sub.complement(), r, shear=h),
                      None))
    return cases


def test_a_mixed_batch_builds_each_object_as_alone_and_as_the_per_block_reference():
    cases = _batch_cases()
    rngs = [np.random.default_rng(seed) for seed in range(len(cases))]
    drawn = [draw(r) for (draw, _, _), r in zip(cases, rngs)]
    # instances of one to three objects, the objects in case order
    start, batch = 0, []
    while start < len(drawn):
        width = 1 + len(batch) % 3
        batch.append(tuple(drawn[start : start + width]))
        start += width
    built = [obj for instance in build(batch) for obj in instance]
    assert len(built) == len(cases)
    for seed, ((_, alone, reference), obj, rng) in enumerate(zip(cases, built, rngs)):
        mine = np.random.default_rng(seed)
        _assert_bitwise(_flat(obj), _flat(alone(mine)))
        assert rng.bit_generator.state == mine.bit_generator.state, f"case {seed}"
        if reference is not None:
            ref = np.random.default_rng(seed)
            _assert_bitwise(_flat(obj), reference(ref))
            assert rng.bit_generator.state == ref.bit_generator.state, f"case {seed}"


def test_regular_data_refuses_a_decided_rank_off_the_planted_one():
    # the complements' mixes are drawn with T's planted rank, 5 here; a rank
    # cutoff above the kept singular values makes T decide a smaller one
    tol = ToleranceConfig(rank_tol=0.1)
    with pytest.raises(StructureError, match=r"T decides rank [0-4], planted 5"):
        random_regular_data(6, 6, np.random.default_rng(0), rank_deficit=1, tol=tol)


def test_oversize_nilpotent_list_is_refused_by_name():
    rng = np.random.default_rng(0)
    for text, m, nil, message in (
        ("2,3", 2, (3, 2), "nilpotent sizes (3, 2) exceed block dimension 4"),
        ("2,1,3", 3, (4,), "nilpotent sizes (4,) exceed block dimension 3"),
        ("2,1,3", 3, (7,), "nilpotent sizes (7,) exceed block dimension 6"),
    ):
        with pytest.raises(StructureError, match=re.escape(message)):
            random_endomorphism(parse_shape(text), m, rng, nilpotent=nil)


@pytest.mark.parametrize(
    "ranks, message",
    [
        ((1, 7), "multiplicity 7 out of range for block dimension 6"),
        ((-1, 0), "multiplicity -1 out of range for block dimension 4"),
    ],
)
def test_out_of_range_multiplicity_is_refused_by_name(ranks, message):
    with pytest.raises(StructureError, match=re.escape(message)):
        random_submodule(parse_shape("2,3"), 2, np.random.default_rng(0), ranks=ranks)


def _per_entry_jsonable(f: AdjointableMap) -> dict:
    """The operator file format written entry by entry from ``f.blocks``."""

    def pairs(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

    entries = [
        [
            [
                pairs(blk[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb])
                for blk, nb in zip(f.blocks, f.shape.block_sizes)
            ]
            for j in range(f.m)
        ]
        for i in range(f.n)
    ]
    return {"shape": list(f.shape.block_sizes), "domain": f.m, "codomain": f.n, "entries": entries}


@pytest.mark.parametrize("text", ["2,3", "1^6,2^3,3", "1^32", "4", "2,1,2"])
def test_operator_writer_matches_per_entry_writer(text):
    shape = parse_shape(text)
    rng = np.random.default_rng(7)
    for f in (random_map(shape, 3, 2, rng, rank_deficit=1), random_endomorphism(shape, 2, rng)):
        assert json.dumps(operator_to_jsonable(f)) == json.dumps(_per_entry_jsonable(f))
