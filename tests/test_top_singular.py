"""The screened largest singular value over grouped matrices, against the
per-matrix values-only SVDs it stands for."""

import numpy as np
import pytest

from modop import drazin, geometry, linmap, subspace
from modop.randgen import parse_shape, random_endomorphism
from modop.subspace import Grouped, _top_singular


def per_matrix_max(stacks) -> float:
    """max over every nonempty matrix of its first values-only singular
    value, one SVD call per matrix, in position order (0.0 for none)."""
    tops = [
        max(float(np.linalg.svd(a, compute_uv=False)[0]) for a in stack)
        for stack in stacks
        if stack.size
    ]
    return max(tops, default=0.0)


def grouped(*stacks) -> Grouped:
    start, members = 0, []
    for s in stacks:
        members.append(np.arange(start, start + len(s)))
        start += len(s)
    return Grouped(stacks, members)


def complex_stack(rng, count, rows, cols, log2_scales=(0, 0)) -> np.ndarray:
    """count rows x cols complex normals, block i scaled by 2^e_i with e_i
    uniform in ``log2_scales``."""
    a = rng.normal(size=(count, rows, cols)) + 1j * rng.normal(size=(count, rows, cols))
    return a * np.exp2(rng.uniform(*log2_scales, size=count))[:, None, None]


def test_equals_the_per_matrix_max_on_spread_scales(svd_calls):
    # stacks of 1-300 matrices of sizes 1-6, square and rectangular, each
    # block scaled by its own power of two in 2^-600 .. 2^+500
    rng = np.random.default_rng(30)
    for case in range(60):
        count = int(rng.integers(1, 301)) if case % 3 else int(rng.integers(1, 5))
        rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
        a = complex_stack(rng, count, rows, cols, (-600, 500) if case % 2 else (-3, 3))
        svd_calls.clear()
        got = _top_singular(grouped(a))
        assert len(svd_calls) <= (1 if count == 1 else 2)
        assert got == per_matrix_max([a])


@pytest.mark.parametrize("log2_scale", [-560, -1000, 0, 500, 1000])
def test_equals_the_per_matrix_max_where_squares_under_or_overflow(log2_scale):
    # at 2^-560 every square underflows and at 2^+500 the squares of the
    # larger entries pass 2^1000: the screen must scale before it squares
    rng = np.random.default_rng([30, abs(log2_scale)])
    for rows, cols in ((4, 4), (3, 1), (1, 3), (6, 5)):
        a = complex_stack(rng, 64, rows, cols) * 2.0**log2_scale
        assert _top_singular(grouped(a)) == per_matrix_max([a])


def test_the_slack_keeps_blocks_that_tie_to_rounding():
    # for a rank-one block sigma_max = ||A||_F, so the computed values of a
    # stack of unit rank-one blocks differ from their Frobenius norms only
    # by rounding; beside a flat block (sigma = 1, ||I||_F = 2) a rank-one
    # block at 1 + 2^-40 must still set the max
    rng = np.random.default_rng(36)
    u, v = complex_stack(rng, 300, 5, 1), complex_stack(rng, 300, 1, 4)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    ones = u @ v
    assert _top_singular(grouped(ones)) == per_matrix_max([ones])
    flat = np.zeros((2, 4, 4), complex)
    flat[0] = np.eye(4)
    flat[1, 0, 0] = 1.0 + 2.0**-40
    assert _top_singular(grouped(flat)) == 1.0 + 2.0**-40


def test_exact_ties_zero_blocks_and_zero_widths(svd_calls):
    rng = np.random.default_rng(31)
    a = complex_stack(rng, 5, 3, 4)
    ties = np.concatenate([a, a[::-1], a[2:3], a[2:3]])
    zeros = np.zeros((7, 3, 3), complex)
    mixed = np.concatenate([zeros, complex_stack(rng, 3, 3, 3), zeros])
    for g in (
        grouped(ties),
        grouped(zeros),
        grouped(zeros[:1]),
        grouped(mixed),
        grouped(np.zeros((4, 3, 0), complex), np.zeros((2, 0, 5), complex)),
        grouped(np.zeros((4, 3, 0), complex), a, zeros, a[:1]),
    ):
        assert _top_singular(g) == per_matrix_max(g.stacks)
    svd_calls.clear()
    assert _top_singular(grouped(zeros, np.zeros((3, 2, 0), complex))) == 0.0
    assert svd_calls == []  # an all-zero group is 0.0 without LAPACK


def test_non_contiguous_views():
    # the off-diagonal corners of a stack, as PowerChain.witness slices them,
    # and a strided stack
    rng = np.random.default_rng(32)
    t = complex_stack(rng, 40, 5, 5, (-8, 8))
    for r in range(1, 5):
        for corner in (t[:, :r, r:], t[:, r:, :r], t[::3, ::2, 1:]):
            assert not corner.flags.c_contiguous
            assert _top_singular(grouped(corner)) == per_matrix_max([corner])


@pytest.mark.parametrize("where", [0, 7, 19])
def test_a_nan_block_raises_what_the_unscreened_call_raised(where):
    rng = np.random.default_rng(33)
    a = complex_stack(rng, 20, 3, 3)
    a[where, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as unscreened:
        np.linalg.svd(a, compute_uv=False)
    with pytest.raises(np.linalg.LinAlgError) as screened:
        _top_singular(grouped(a))
    assert str(screened.value) == str(unscreened.value)


def test_an_infinite_entry_keeps_the_unscreened_value():
    # LAPACK returns NaN for an infinite entry instead of raising; the
    # screen keeps such a matrix and Python's max sees the same order
    rng = np.random.default_rng(34)
    for where in (0, 3):
        a = complex_stack(rng, 6, 2, 2)
        a[where, 0, 0] = np.inf
        assert np.array_equal(_top_singular(grouped(a)), per_matrix_max([a]), equal_nan=True)


def test_algebra_norm_is_the_largest_block_norm():
    rng = np.random.default_rng(35)
    shape = parse_shape("1^6,2^3,3")
    blocks = [complex_stack(rng, 1, n, n, (-40, 40))[0] for n in shape.block_sizes]
    assert _top_singular(Grouped.of(blocks)) == per_matrix_max([b[None] for b in blocks])


def test_drazin_norms_screen_every_block_stack(monkeypatch, svd_calls):
    # the planted 1^256/4 endomorphism of the size ladder: the norm-only maps
    # of drazin_inverse (X, its four residuals, the core and nilpotent
    # parts) and the witness's two corners passed 9 x 256 matrices through
    # values-only SVDs unscreened, one call each; screened, each group
    # takes at most two calls, and the split's and the core's rank
    # decisions keep all 2 x 256
    f = random_endomorphism(parse_shape("1^256"), 4, np.random.default_rng(0), nilpotent=(2, 1))
    f._svd  # the map's own full record, outside the count
    screened = []

    def matrices(calls) -> int:
        return sum(len(c.a) if c.a.ndim == 3 else 1 for c in calls)

    def counting(g):
        start = len(svd_calls)
        out = _top_singular(g)
        calls = svd_calls[start:]
        assert len(calls) <= sum(1 if len(s) == 1 else 2 for s in g.stacks if s.size)
        screened.append(matrices(calls))
        return out

    for module in (subspace, linmap, drazin, geometry):
        monkeypatch.setattr(module, "_top_singular", counting)
    svd_calls.clear()
    report = drazin.drazin_inverse(f)
    norms = [m.norm() for m in (report.drazin_inverse, report.core_part, report.nilpotent_part)]
    assert all(n > 0 for n in norms)
    values_only = matrices([c for c in svd_calls if not c.compute_uv])
    assert len(screened) == 9  # X's norm is read once, by the residuals and the report
    assert sum(screened) <= 40  # 9 at this seed
    assert values_only <= 2 * 256 + 40  # 521 at this seed, 2,816 unscreened
