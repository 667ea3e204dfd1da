"""The grouped spectral core: one stacked LAPACK call per block shape,
with output bitwise equal to the per-matrix computation."""

import collections
import json
import math
import sys

import numpy as np
import pytest

from modop import linmap, subspace
from modop.algebra import AlgebraShape
from modop.cli import main
from modop.linmap import AdjointableMap
from modop.randgen import parse_shape, random_endomorphism, random_submodule
from modop.serialize import operator_to_jsonable, save_json
from modop.subspace import (
    _decide,
    complement,
    empty_basis,
    intersections,
    null_spaces,
    orthonormal_images,
    stacked,
    svd_datas,
)


def _one_by_one(fn, *operands, **kwargs):
    return [fn(*mats, **kwargs) for mats in zip(*operands)]


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


def _svd_calls(monkeypatch):
    calls = [0]
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls[0] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_stacked_keeps_input_order_and_per_matrix_bits(rng):
    shapes = [(4, 3), (2, 2), (4, 3), (4, 0), (2, 2), (4, 3), (1, 5)]
    mats = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    for (u, s, vh), a in zip(stacked(np.linalg.svd, mats), mats):
        ref = np.linalg.svd(a)
        assert all(np.array_equal(x, y) for x, y in zip((u, s, vh), ref))
    vals = stacked(np.linalg.svd, mats, compute_uv=False)
    assert all(np.array_equal(v, np.linalg.svd(a, compute_uv=False)) for v, a in zip(vals, mats))
    prods = stacked(np.matmul, mats, [a.conj().T for a in mats])
    assert all(np.array_equal(p, a @ a.conj().T) for p, a in zip(prods, mats))


def test_analyze_svd_calls_scale_with_shapes_not_blocks(tmp_path, monkeypatch, capsys):
    # the planted 1^32/4 endomorphism of the size ladder against its 1^8/4
    # counterpart: four times the blocks, all of one shape
    counts = {}
    for text in ("1^8", "1^32"):
        rng = np.random.default_rng(7)
        f = random_endomorphism(parse_shape(text), 4, rng, nilpotent=(2, 1))
        path = _write(tmp_path, f"endo-{text}.json", f)
        calls = _svd_calls(monkeypatch)
        assert main(["analyze", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["drazin"]["p"] == 2
        counts[text] = calls[0]
        monkeypatch.undo()
    assert counts["1^32"] == counts["1^8"]


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


def test_analyze_runs_no_svd_job_twice(tmp_path, monkeypatch, capsys):
    # step 1 of both staircases reads the map's own full SVD record
    f = random_endomorphism(AlgebraShape((2, 3)), 2, np.random.default_rng(5), nilpotent=(2, 1))
    path = _write(tmp_path, "endo.json", f)
    jobs = collections.Counter()
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        flags = (kwargs.get("full_matrices", True), kwargs.get("compute_uv", True))
        for mat in np.asarray(a).reshape((-1,) + np.shape(a)[-2:]):
            jobs[mat.shape, mat.tobytes(), flags] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    assert main(["analyze", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["drazin"]["p"] == 2
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


def _cnormal(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_zero_size_matrices_get_empty_answers_beside_live_ones(rng):
    # (d, 0) and (0, d) matrices inside one list with two live 4 x 3 ones
    live, twin = _cnormal(rng, 4, 3), _cnormal(rng, 4, 3)
    thin, flat = empty_basis(4), np.zeros((0, 3), dtype=np.complex128)
    mats = [live, thin, flat, twin]
    images = orthonormal_images(mats, scale=1.0)
    kernels = null_spaces(mats, scale=1.0)
    datas = svd_datas(mats, scale=1.0)
    for i, a in ((0, live), (3, twin)):
        # grouped with its twin, a live matrix still gets the plain numpy bits
        assert np.array_equal(images[i][0], np.linalg.svd(a, full_matrices=False)[0])
        assert kernels[i][0].shape == (3, 0)
        assert datas[i].values == tuple(np.linalg.svd(a, compute_uv=False).tolist())
        assert datas[i].rank == 3 and math.isfinite(datas[i].margin)
    for i, (rows, cols) in ((1, (4, 0)), (2, (0, 3))):
        image, image_data = images[i]
        kernel, kernel_data = kernels[i]
        assert image.shape == (rows, 0) and image.dtype == np.complex128
        assert np.array_equal(kernel, np.eye(cols))  # everything is in the kernel
        for data in (image_data, kernel_data, datas[i]):
            assert data.values == () and data.rank == 0
            assert data.gamma == math.inf and data.margin == math.inf
    # the orthogonal complement of the zero subspace is everything
    assert np.array_equal(complement(thin), np.eye(4))


def test_zero_width_bases_meet_in_nothing_beside_live_pairs(rng):
    q1 = np.linalg.qr(_cnormal(rng, 5, 3))[0]
    q2 = np.linalg.qr(np.hstack([q1[:, :1], _cnormal(rng, 5, 2)]))[0]  # shares one line
    thin = empty_basis(5)
    pairs = intersections([q1, thin, q1, thin], [thin, q2, q2, thin])
    for i in (0, 1, 3):
        basis, gap = pairs[i]
        assert basis.shape == (5, 0) and basis.dtype == np.complex128
        assert gap == math.inf
    meet, gap = pairs[2]
    assert meet.shape == (5, 1) and gap > 0.1
    lone_meet, lone_gap = intersections([q1], [q2])[0]
    assert np.array_equal(meet, lone_meet) and gap == lone_gap
