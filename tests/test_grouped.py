"""The grouped spectral core: one stacked LAPACK call per block shape,
with output bitwise equal to the per-matrix computation."""

import collections
import itertools
import json
import math
import sys

import numpy as np
import pytest

from modop import linmap, subspace
from modop.algebra import AlgebraShape
from modop.cli import main
from modop.drazin import commuting_browder_check, drazin_inverse
from modop.errors import StructureError
from modop.fredholm import b_fredholm_report, exact_sequence
from modop.linmap import AdjointableMap
from modop.modules import Submodule
from modop.randgen import parse_shape, random_endomorphism, random_map, random_submodule
from modop.serialize import operator_to_jsonable, save_json
from modop.subspace import Grouped, _decide, _meets, _spans, _stack_ranks, herm, stacked
from modop.tolerances import DEFAULT_TOL


def _one_by_one(fn, *operands, **kwargs):
    """``stacked`` as a plain loop: fn on each position's 2-D matrices,
    the results stacked on the groups ``stacked`` would call fn on."""
    members, _ = subspace._aligned(operands)
    held = [i for idx in members for i in idx.tolist()]
    per = {i: fn(*(op.mats[i] for op in operands), **kwargs) for i in held}

    def grouped(pick):
        return Grouped([np.stack([pick(per[i]) for i in idx.tolist()]) for idx in members], members)

    if per and isinstance(next(iter(per.values())), tuple):
        return tuple(grouped(lambda r, j=j: r[j]) for j in range(len(next(iter(per.values())))))
    return grouped(lambda r: r)


def _per_matrix(monkeypatch):
    """Replace the grouping primitive, wherever modop imported it, with a
    plain per-matrix loop: the reference every grouped result must equal."""
    for name, module in list(sys.modules.items()):
        if name.startswith("modop") and getattr(module, "stacked", None) is stacked:
            monkeypatch.setattr(module, "stacked", _one_by_one)


def _write(tmp_path, name, f):
    path = tmp_path / name
    save_json(str(path), operator_to_jsonable(f))
    return str(path)


def test_stacked_keeps_input_order_and_per_matrix_bits(rng):
    shapes = [(4, 3), (2, 2), (4, 3), (4, 0), (2, 2), (4, 3), (1, 5)]
    mats = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    grouped = Grouped.of(mats)
    assert len(grouped.stacks) == 4  # one stack per distinct shape
    u, s, vh = stacked(np.linalg.svd, grouped)
    for i, a in enumerate(mats):
        ref = np.linalg.svd(a)
        assert all(np.array_equal(x.mats[i], y) for x, y in zip((u, s, vh), ref))
    vals = stacked(np.linalg.svd, grouped, compute_uv=False).mats
    assert all(np.array_equal(v, np.linalg.svd(a, compute_uv=False)) for v, a in zip(vals, mats))
    prods = stacked(np.matmul, grouped, Grouped.of([a.conj().T for a in mats])).mats
    assert all(np.array_equal(p, a @ a.conj().T) for p, a in zip(prods, mats))


def test_analyze_svd_calls_scale_with_shapes_not_blocks(tmp_path, svd_calls, capsys):
    # the planted 1^32/4 endomorphism of the size ladder against its 1^8/4
    # counterpart: four times the blocks, all of one shape
    counts = {}
    for text in ("1^8", "1^32"):
        rng = np.random.default_rng(7)
        f = random_endomorphism(parse_shape(text), 4, rng, nilpotent=(2, 1))
        path = _write(tmp_path, f"endo-{text}.json", f)
        svd_calls.clear()
        assert main(["analyze", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["drazin"]["p"] == 2
        counts[text] = len(svd_calls)
    assert counts["1^32"] == counts["1^8"]


def _group_calls(monkeypatch) -> collections.Counter:
    """Count the numpy calls ``stacked`` makes, one per group, by routine."""
    calls = collections.Counter()

    def counting(fn, *operands, **kwargs):
        def counted(*args, **kw):
            calls[fn.__name__] += 1
            return fn(*args, **kw)

        return stacked(counted, *operands, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("modop") and getattr(module, "stacked", None) is stacked:
            monkeypatch.setattr(module, "stacked", counting)
    return calls


def test_analyze_group_calls_scale_with_shapes_not_blocks(tmp_path, monkeypatch, capsys):
    # every stacked routine (SVDs, products, inverses, the QR of a meet) runs
    # once per stored group: 1^64/4 makes the calls 1^8/4 makes
    counts = {}
    for text in ("1^8", "1^64"):
        f = random_endomorphism(parse_shape(text), 4, np.random.default_rng(7), nilpotent=(2, 1))
        path = _write(tmp_path, f"endo-{text}.json", f)
        calls = _group_calls(monkeypatch)
        assert main(["analyze", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["drazin"]["p"] == 2
        counts[text] = calls
        monkeypatch.undo()
    assert counts["1^64"] == counts["1^8"]
    assert {"svd", "matmul", "inv", "_shared"} <= set(counts["1^8"])


@pytest.mark.parametrize("make", ["map", "submodule"])
def test_constructors_copy_their_inputs(make, rng):
    shape = parse_shape("1^3,2")
    if make == "map":
        mats = [rng.normal(size=(2 * nb, 2 * nb)) + 0j for nb in shape.block_sizes]
        obj = AdjointableMap(shape, 2, 2, mats)
        stored = obj.blocks
    else:
        mats = [np.linalg.qr(rng.normal(size=(2 * nb, nb)) + 0j)[0] for nb in shape.block_sizes]
        obj = Submodule(shape, 2, mats)
        stored = obj.column_bases
    before = [a.copy() for a in stored]
    for a in mats:
        a[...] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(stored, before))


def test_constructors_check_a_passed_grouped(rng):
    # a Grouped handed to the public constructors is checked and copied like
    # per-block input: a block short, or a block of the wrong size, is refused
    shape = parse_shape("1^3,2")
    mats = [rng.normal(size=(2 * nb, 2 * nb)) + 0j for nb in shape.block_sizes]
    with pytest.raises(StructureError):
        AdjointableMap(shape, 2, 2, Grouped.of(mats[:3]))
    with pytest.raises(StructureError):
        AdjointableMap(shape, 2, 2, Grouped.of(mats[:3] + [mats[0]]))
    with pytest.raises(StructureError):
        Submodule(shape, 2, Grouped.of([np.eye(2 * nb)[:, :1] for nb in (1, 1, 2, 2)]))
    grouped = Grouped.of(mats)
    f = AdjointableMap(shape, 2, 2, grouped)
    assert all(a is not b for a, b in zip(f.groups.stacks, grouped.stacks))
    assert all(np.array_equal(a, b) for a, b in zip(f.blocks, mats))


def test_block_and_basis_views_are_read_only(rng):
    f = random_endomorphism(parse_shape("1^4,3"), 2, rng, nilpotent=(1,))
    derived = [f, f @ f, f.adjoint(), 2.0 * f - f]
    subs = [f.kernel(), f.image(), f.kernel().complement(), f.image().intersection(f.kernel())[0]]
    views = [b for g in derived for b in g.blocks] + [w for s in subs for w in s.column_bases]
    assert views and not any(v.flags.writeable for v in views)
    with pytest.raises(ValueError):
        f.blocks[0][0, 0] = 1.0


def test_staircase_decisions_scale_with_steps_not_blocks(monkeypatch):
    # one shared-cutoff decision per staircase step, whatever the block count
    counts = {}
    for text in ("1^8", "1^32"):
        f = random_endomorphism(parse_shape(text), 4, np.random.default_rng(7), nilpotent=(2, 1))
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return _decide(*args, **kwargs)

        for module in (subspace, linmap):
            monkeypatch.setattr(module, "_decide", counting)
        chain = f.power_chain()
        assert chain.index == 2 and chain.margin > 0  # both staircases built
        counts[text] = calls[0]
        monkeypatch.undo()
    assert counts["1^32"] == counts["1^8"]


def test_exact_sequence_decisions_scale_with_shapes_not_blocks(monkeypatch):
    # every rank decision of the certificate, shared-cutoff (_decide) or
    # counted per stack (_stack_ranks): 1^64/4 makes the calls 1^8/4 makes
    counts = {}
    for text in ("1^8", "1^64"):
        rng = np.random.default_rng(3)
        f, g = (random_map(parse_shape(text), 4, 4, rng, rank_deficit=1) for _ in range(2))
        calls = collections.Counter()

        def counting(real):
            def counted(*args, **kwargs):
                calls[real.__name__] += 1
                return real(*args, **kwargs)

            return counted

        for module in (subspace, linmap):
            for real in (_decide, _stack_ranks):
                monkeypatch.setattr(module, real.__name__, counting(real))
        assert exact_sequence(f, g).worst_residual < 1e-8
        counts[text] = calls
        monkeypatch.undo()
    assert counts["1^64"] == counts["1^8"]
    assert set(counts["1^8"]) == {"_decide", "_stack_ranks"}


def test_analyze_runs_no_svd_job_twice(tmp_path, svd_calls, capsys):
    # step 1 of both staircases reads the map's own full SVD record
    f = random_endomorphism(AlgebraShape((2, 3)), 2, np.random.default_rng(5), nilpotent=(2, 1))
    path = _write(tmp_path, "endo.json", f)
    svd_calls.clear()
    assert main(["analyze", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["drazin"]["p"] == 2
    jobs = collections.Counter(
        (mat.shape, mat.tobytes(), call.full_matrices, call.compute_uv)
        for call in svd_calls
        for mat in call.a.reshape((-1,) + call.a.shape[-2:])
    )
    assert jobs and max(jobs.values()) == 1


@pytest.mark.parametrize("kind", ["planted", "zero", "invertible"])
def test_grouped_output_equals_per_matrix_loop(tmp_path, capsys, monkeypatch, kind):
    # mixed block sizes: groups of six, three and one; the zero and the
    # invertible map put empty bases inside groups
    shape = parse_shape("1^6,2^3,3")
    rng = np.random.default_rng(11)
    if kind == "planted":
        f = random_endomorphism(shape, 2, rng, nilpotent=(1,))
    elif kind == "zero":
        f = AdjointableMap.zero(shape, 2, 2)
    else:
        f = random_endomorphism(shape, 2, rng)
    path = _write(tmp_path, "op.json", f)

    def run() -> list[str]:
        out = []
        for cmd in ("analyze", "drazin"):
            assert main([cmd, path, "--format", "json"]) == 0
            out.append(capsys.readouterr().out)
        return out

    grouped = run()
    _per_matrix(monkeypatch)
    assert run() == grouped


def test_ragged_widths_match_per_matrix_loop(rng, monkeypatch):
    # equal-size blocks whose column bases differ in width
    shape = AlgebraShape((2,) * 7)
    a = random_submodule(shape, 2, rng, ranks=(3, 2, 3, 4, 0, 3, 3))
    b = random_submodule(shape, 2, rng, ranks=(2, 3, 3, 1, 4, 3, 2))

    def lattice():
        meet, gap = a.intersection(b)
        return meet.column_bases, gap, a.complement().column_bases, b.complement().column_bases

    meet, gap, comp_a, comp_b = lattice()
    _per_matrix(monkeypatch)
    ref_meet, ref_gap, ref_a, ref_b = lattice()
    assert gap == ref_gap
    assert [w.shape[1] for w in meet] == [1, 1, 2, 1, 0, 2, 1]
    for got, want in ((meet, ref_meet), (comp_a, ref_a), (comp_b, ref_b)):
        assert all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(got, want))


def _outside(q, x):
    """Norm of the part of span(x) outside span(q), in plain numpy."""
    return float(np.linalg.norm(x - q @ (q.conj().T @ x), 2)) if x.shape[1] else 0.0


def test_equals_and_contains_on_ragged_widths_match_a_per_block_loop(rng):
    # equal-size blocks whose column bases differ in width, a zero one included
    shape = AlgebraShape((2,) * 7)
    a = random_submodule(shape, 2, rng, ranks=(3, 2, 3, 4, 0, 3, 1))
    other = random_submodule(shape, 2, rng, ranks=(3, 2, 3, 4, 0, 3, 1))
    turned = [w @ np.linalg.qr(_cnormal(rng, w.shape[1], w.shape[1]))[0] for w in a.column_bases]
    tilted = list(turned)
    tilted[2] = np.linalg.qr(turned[2] + 1e-6 * _cnormal(rng, 4, 3))[0]
    inner = [w[:, : w.shape[1] // 2] for w in a.column_bases]  # widths 1, 1, 1, 2, 0, 1, 0
    subs = {
        "a": a,
        "other": other,
        "turned": Submodule(shape, 2, tuple(turned)),
        "tilted": Submodule(shape, 2, tuple(tilted)),
        "inner": Submodule(shape, 2, tuple(inner)),
    }

    def defect_loop(p, q):
        if [w.shape[1] for w in p.column_bases] != [w.shape[1] for w in q.column_bases]:
            return math.inf
        pairs = zip(p.column_bases, q.column_bases)
        return max(max(_outside(x, y), _outside(y, x)) for x, y in pairs)

    def contains_loop(big, small):
        pairs = [(x, y) for x, y in zip(big.column_bases, small.column_bases) if y.shape[1]]
        if any(x.shape[1] == 0 for x, _ in pairs):
            return False, 1.0
        worst = max((_outside(x, y) for x, y in pairs), default=0.0)
        return worst <= DEFAULT_TOL.angle_tol, worst

    verdicts = set()
    for p in subs.values():
        for q in subs.values():
            want = defect_loop(p, q)
            got = p.equality_defect(q)
            assert got == want or abs(got - want) <= 1e-14
            assert p.equals(q) == (want <= DEFAULT_TOL.angle_tol)
            (ok, worst), (want_ok, want_worst) = p.contains(q), contains_loop(p, q)
            assert ok == want_ok and abs(worst - want_worst) <= 1e-14
            verdicts.add((p.equals(q), ok))
    assert verdicts == {(True, True), (False, True), (False, False)}
    assert subs["a"].equals(subs["turned"]) and not subs["a"].equals(subs["tilted"])
    assert subs["a"].contains(subs["inner"])[0]
    assert subs["inner"].contains(subs["a"]) == (False, 1.0)


def test_regrouping_never_merges_positions_an_operand_keeps_apart(rng):
    # four 2 x 2 matrices: one group in a, two in b (as a split keeps
    # blocks of one size but different ranks apart)
    mats = [_cnormal(rng, 2, 2) for _ in range(4)]
    a = Grouped.of(mats)
    b = Grouped([np.array(mats[0::2]), np.array(mats[1::2])], [np.array([0, 2]), np.array([1, 3])])
    members, parts = subspace._aligned((a, b))
    assert [idx.tolist() for idx in members] == [[0, 2], [1, 3]]
    for idx, (x, y) in zip(members, parts):
        assert np.array_equal(x, y) and np.array_equal(x, np.array([mats[i] for i in idx]))


def test_equal_size_blocks_of_different_stable_ranks():
    # 1^2 with F = diag(I, 0) and G = diag(I, J), J the nilpotent Jordan
    # block: both blocks are 2 x 2, their stable ranges 2 and 0
    shape, eye = AlgebraShape((1, 1)), np.eye(2)
    jordan, zero = np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))
    f = AdjointableMap(shape, 2, 2, (eye, zero))
    g = AdjointableMap(shape, 2, 2, (eye, jordan))
    flipped = AdjointableMap(shape, 2, 2, (jordan, eye))
    cases = ((f, 1, (4, 2), (2, 0)), (g, 2, (4, 3, 2), (2, 0)), (flipped, 2, (4, 3, 2), (0, 2)))
    for h, p, chain, k0 in cases:
        rep = drazin_inverse(h)
        assert rep.p == p
        for blk, rank in zip(rep.drazin_inverse.blocks, k0):
            assert np.allclose(blk, eye if rank else zero)
        b_rep = b_fredholm_report(h)
        assert b_rep.rank_chain == chain and abs(b_rep.restricted_gamma - 1.0) < 1e-12
        assert b_rep.stable_image.k0().entries == k0
    browder = commuting_browder_check(f, g)
    assert browder.p == 1 and browder.range_space.k0().entries == (2, 0)
    for wit in (browder.witness_f, browder.witness_d):
        assert [a.shape for a in wit.f1_blocks.mats] == [(2, 2), (0, 0)]
        assert np.allclose(wit.f1_blocks.mats[0], eye)


def _cnormal(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_zero_size_matrices_get_empty_answers_beside_live_ones(rng):
    # (d, 0) and (0, d) matrices beside two live 4 x 3 ones, one at a time
    # and as one Grouped (the twins in one stack)
    live, twin = _cnormal(rng, 4, 3), _cnormal(rng, 4, 3)
    thin, flat = np.zeros((4, 0), dtype=np.complex128), np.zeros((0, 3), dtype=np.complex128)
    mats = [live, thin, flat, twin]
    # one matrix at a time: numpy's SVD and the one decision rule at unit scale
    values = [np.linalg.svd(a, compute_uv=False) for a in mats]
    datas = [_decide(v, DEFAULT_TOL, max(a.shape), 1.0) for v, a in zip(values, mats)]
    images = [(np.linalg.svd(a, full_matrices=False)[0][:, : d.rank], d) for a, d in zip(mats, datas)]
    kernels = [(herm(np.linalg.svd(a)[2][d.rank :]), d) for a, d in zip(mats, datas)]
    grouped = Grouped.of(mats)
    assert len(grouped.stacks) == 3
    spans = _spans(grouped, DEFAULT_TOL, scale=1.0).mats
    nulls = _spans(grouped, DEFAULT_TOL, scale=1.0, kernel=True).mats
    values = stacked(np.linalg.svd, grouped, compute_uv=False)
    ranks = {}
    for v, a, idx in zip(values.stacks, grouped.stacks, grouped.members):
        got = _stack_ranks(v, DEFAULT_TOL, max(a.shape[1:]), 1.0)
        ranks.update(zip(idx.tolist(), got.tolist()))
    assert ranks == {i: d.rank for i, d in enumerate(datas)}
    for i, a in ((0, live), (3, twin)):
        # alone, or stacked with its twin, a live matrix gets the plain numpy bits
        assert np.array_equal(images[i][0], np.linalg.svd(a, full_matrices=False)[0])
        assert np.array_equal(spans[i], images[i][0])
        assert kernels[i][0].shape == (3, 0) and nulls[i].shape == (3, 0)
        assert datas[i].values == tuple(np.linalg.svd(a, compute_uv=False).tolist())
        assert datas[i].values == tuple(values.mats[i].tolist())
        assert datas[i].rank == 3 and math.isfinite(datas[i].margin)
    for i, (rows, cols) in ((1, (4, 0)), (2, (0, 3))):
        image, image_data = images[i]
        kernel, kernel_data = kernels[i]
        for basis in (image, spans[i]):
            assert basis.shape == (rows, 0) and basis.dtype == np.complex128
        for basis in (kernel, nulls[i]):
            assert np.array_equal(basis, np.eye(cols))  # everything is in the kernel
        for data in (image_data, kernel_data, datas[i]):
            assert data.values == () and data.rank == 0
            assert data.gamma == math.inf and data.margin == math.inf
    # the orthogonal complement of the zero subspace is everything
    zero = Submodule(AlgebraShape((1,)), 4, (thin,))
    assert np.array_equal(zero.complement().column_bases[0], np.eye(4))


def test_zero_width_bases_meet_in_nothing_beside_live_pairs(rng):
    q1 = np.linalg.qr(_cnormal(rng, 5, 3))[0]
    q2 = np.linalg.qr(np.hstack([q1[:, :1], _cnormal(rng, 5, 2)]))[0]  # shares one line
    thin = np.zeros((5, 0), dtype=np.complex128)

    def intersections(q1s, q2s):
        bases, gaps = _meets(Grouped.of(q1s), Grouped.of(q2s))
        return list(zip(bases.mats, gaps.tolist()))

    pairs = intersections([q1, thin, q1, thin], [thin, q2, q2, thin])
    for i in (0, 1, 3):
        basis, gap = pairs[i]
        assert basis.shape == (5, 0) and basis.dtype == np.complex128
        assert gap == math.inf
    meet, gap = pairs[2]
    assert meet.shape == (5, 1) and gap > 0.1
    lone_meet, lone_gap = intersections([q1], [q2])[0]
    assert np.array_equal(meet, lone_meet) and gap == lone_gap


def test_difference_svd_reads_the_full_factor_only_on_wide_stacks():
    # the values and V^H a meet reads are bitwise those of the full SVD, tall or wide
    rng = np.random.default_rng(11)
    for d in (1, 2, 5, 9, 16):
        z = rng.normal(size=(2, 2, 3, d, d))
        q1, q2 = np.linalg.qr(z[:, 0] + 1j * z[:, 1])[0]
        for a, b in itertools.product(range(d + 1), repeat=2):
            if a + b:
                _, s, vh = subspace._difference_svd(q1[..., :a], q2[..., :b])
                full = np.concatenate([q1[..., :a], -q2[..., :b]], axis=-1)
                _, s_full, vh_full = np.linalg.svd(full, full_matrices=True)
                assert s.tobytes() == s_full.tobytes(), (d, a, b)
                assert vh.tobytes() == vh_full.tobytes(), (d, a, b)
