"""JSON schemas, canonical emission, and the error diagnostics they promise."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modop.algebra import AlgebraShape
from modop.drazin import drazin_inverse
from modop.errors import DataError
from modop.linmap import AdjointableMap
from modop.modules import ModuleVector, Submodule
from modop.randgen import parse_shape, random_map, random_submodule, random_vector_flat
from modop.serialize import (
    _blocks_from_entries,
    dumps_canonical,
    element_from_jsonable,
    element_to_jsonable,
    load_geometry_operand,
    load_json,
    load_operator,
    load_submodule,
    operator_from_jsonable,
    operator_to_jsonable,
    report_to_jsonable,
    save_json,
    shape_from_jsonable,
    submodule_from_jsonable,
    submodule_to_jsonable,
    vector_from_jsonable,
    vector_to_jsonable,
)


@pytest.mark.parametrize("text, m", [("1^6,2^3,3", 2), ("16", 4), ("2,3", 2)])
def test_grouped_operator_io_matches_the_entrywise_path(text, m, rng):
    # one tolist per block-size group writes the JSON values the per-entry
    # element path writes, and reading them back restores every bit
    f = random_map(parse_shape(text), m, m + 1, rng)
    data = operator_to_jsonable(f)
    assert data["entries"] == [
        [element_to_jsonable(f.entry(i, j)) for j in range(f.m)] for i in range(f.n)
    ]
    g = operator_from_jsonable(json.loads(json.dumps(data)))
    assert all(np.array_equal(a, b) for a, b in zip(g.blocks, f.blocks))


def test_operator_roundtrip(shape23, rng):
    f = random_map(shape23, 3, 2, rng)
    g = operator_from_jsonable(operator_to_jsonable(f))
    assert g.shape == f.shape and (g.m, g.n) == (f.m, f.n)
    assert g.allclose(f)


def test_vector_roundtrip(shape23, rng):
    v = ModuleVector.from_flat(shape23, 2, random_vector_flat(shape23, 2, rng))
    w = vector_from_jsonable(vector_to_jsonable(v))
    assert np.allclose(w.flatten(), v.flatten())


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_entries_rejected(shape23, rng, bad):
    flat = random_vector_flat(shape23, 2, rng)
    vec = vector_to_jsonable(ModuleVector.from_flat(shape23, 2, flat))
    vec["entries"][1][1][2][0] = [0.0, bad]
    with pytest.raises(DataError) as exc:
        vector_from_jsonable(vec)
    assert "finite" in str(exc.value)
    sub = {"shape": [2, 3], "m": 2, "vectors": [vec]}
    with pytest.raises(DataError):
        submodule_from_jsonable(sub)
    op = operator_to_jsonable(random_map(shape23, 1, 1, rng))
    op["entries"][0][0][0][1][1] = [bad, 0.0]
    with pytest.raises(DataError):
        operator_from_jsonable(op)


def test_submodule_roundtrip(shape23, rng):
    sub = random_submodule(shape23, 3, rng, ranks=(1, 2))
    back = submodule_from_jsonable(submodule_to_jsonable(sub))
    assert back.equals(sub)
    assert submodule_from_jsonable(submodule_to_jsonable(Submodule.zero(shape23, 2))).dim == 0


def test_canonical_output_is_valid_sorted_json():
    text = dumps_canonical({"b": [1.0, 2.5], "a": {"y": True, "x": None}, "c": "s"})
    parsed = json.loads(text)
    assert parsed["b"] == [1.0, 2.5]
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    # floats always printed in full scientific form
    assert "2.5000000000000000e+00" in text


def test_canonical_output_handles_nonfinite():
    text = dumps_canonical({"p": math.inf, "q": -math.inf, "r": math.nan})
    assert json.loads(text) == {"p": "inf", "q": "-inf", "r": "nan"}


def test_canonical_output_is_deterministic(shape23, rng):
    f = random_map(shape23, 2, 2, rng)
    payload = operator_to_jsonable(f)
    assert dumps_canonical(payload) == dumps_canonical(json.loads(dumps_canonical(payload)))


def test_canonical_rejects_foreign_objects():
    with pytest.raises(DataError):
        dumps_canonical({"x": object()})


def test_report_walker_keeps_scalars_drops_arrays(shape23, rng):
    from modop.randgen import random_endomorphism

    rep = drazin_inverse(random_endomorphism(shape23, 2, rng, nilpotent=(2,)))
    payload = report_to_jsonable(rep)
    assert payload["p"] == 2
    assert isinstance(payload["residuals"], dict)
    assert payload["range_space"] == {"k0": list(rep.range_space.k0().entries), "dim": rep.range_space.dim}
    assert payload["drazin_inverse"]["shape"] == [2, 3]
    text = dumps_canonical(payload)  # whole thing must be emittable
    assert json.loads(text)


def test_file_roundtrip_and_loaders(tmp_path, shape23, rng):
    f = random_map(shape23, 2, 2, rng)
    op_path = tmp_path / "op.json"
    save_json(str(op_path), operator_to_jsonable(f))
    assert load_operator(str(op_path)).allclose(f)

    sub = random_submodule(shape23, 2, rng)
    sub_path = tmp_path / "sub.json"
    save_json(str(sub_path), submodule_to_jsonable(sub))
    assert load_submodule(str(sub_path)).equals(sub)

    # geometry operands dispatch on their keys
    assert load_geometry_operand(str(sub_path)).equals(sub)
    assert load_geometry_operand(str(op_path)).allclose(f)


def test_malformed_json_names_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"shape": [2,], }')
    with pytest.raises(DataError) as exc:
        load_json(str(bad))
    msg = str(exc.value)
    assert str(bad) in msg and "line 1" in msg


def test_schema_errors_name_field_paths(shape23):
    with pytest.raises(DataError) as exc:
        shape_from_jsonable([2, 0])
    assert "positive integers" in str(exc.value)

    good = operator_to_jsonable(AdjointableMap.identity(shape23, 1))
    broken = json.loads(json.dumps(good))
    broken["entries"][0][0][0] = [[0.0, 0.0]]  # block 0 should be 2x2 of pairs
    with pytest.raises(DataError) as exc:
        operator_from_jsonable(broken)
    assert "entries[0][0].block[0]" in str(exc.value)

    with pytest.raises(DataError) as exc:
        operator_from_jsonable({"shape": [2]})
    assert "missing fields" in str(exc.value)


def test_submodule_vectors_default_ambient(shape23, rng):
    sub = random_submodule(shape23, 2, rng, ranks=(1, 0))
    payload = submodule_to_jsonable(sub)
    for v in payload["vectors"]:  # the ambient data is recoverable from the header
        del v["shape"], v["m"]
    assert submodule_from_jsonable(payload).equals(sub)


def test_submodule_rejects_mismatched_vector(shape23, rng):
    payload = submodule_to_jsonable(random_submodule(shape23, 2, rng, ranks=(1, 0)))
    payload["vectors"][0]["m"] = 3
    with pytest.raises(DataError):
        submodule_from_jsonable(payload)


# -- fuzzing: shapes, vector and submodule payloads --------------------------

_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=2))
_JUNK = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
_SHAPES = st.lists(st.integers(1, 3), min_size=1, max_size=3)
_INTS = st.one_of(st.integers(), st.integers(min_value=2**31))  # and sizes past any array
_ANY_SHAPE = st.one_of(_SHAPES, st.lists(_INTS, max_size=3), _JUNK)


def _mutate_vector(draw, payload: dict) -> None:
    """Replace one part of a vector payload (possibly none) by junk."""
    entries = payload["entries"]
    i = draw(st.integers(0, len(entries) - 1))
    b = draw(st.integers(0, len(entries[i]) - 1))
    r = draw(st.integers(0, len(entries[i][b]) - 1))
    c = draw(st.integers(0, len(entries[i][b][r]) - 1))
    parts = ["keep", "shape", "m", "entries", "entry", "block", "row", "pair", "number"]
    part = draw(st.sampled_from(parts))
    if part == "shape":
        payload["shape"] = draw(_ANY_SHAPE)
    elif part == "m":
        payload["m"] = draw(st.one_of(_INTS, _JUNK))
    elif part == "entries":
        payload["entries"] = draw(_JUNK)
    elif part == "entry":
        entries[i] = draw(_JUNK)
    elif part == "block":
        entries[i][b] = draw(_JUNK)
    elif part == "row":
        entries[i][b][r] = draw(_JUNK)
    elif part == "pair":
        entries[i][b][r][c] = draw(_JUNK)
    elif part == "number":
        entries[i][b][r][c][draw(st.integers(0, 1))] = draw(_LEAVES)


@st.composite
def _vector_payloads(draw):
    shape = AlgebraShape(tuple(draw(_SHAPES)))
    m = draw(st.integers(1, 2))
    flat = random_vector_flat(shape, m, np.random.default_rng(draw(st.integers(0, 99))))
    payload = vector_to_jsonable(ModuleVector.from_flat(shape, m, flat))
    _mutate_vector(draw, payload)
    return payload


@st.composite
def _submodule_payloads(draw):
    shape = AlgebraShape(tuple(draw(_SHAPES)))
    m = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    ranks = [draw(st.integers(0, m * n)) for n in shape.block_sizes]
    payload = submodule_to_jsonable(random_submodule(shape, m, rng, ranks=ranks))
    parts = ["vector", "foreign vector", "shape", "m", "no vectors", "vectors"]
    chosen = draw(st.sets(st.sampled_from(parts), max_size=2))
    for part in (p for p in parts if p in chosen):  # vector edits before replacements
        if part == "shape":
            payload["shape"] = draw(_ANY_SHAPE)
        elif part == "m":
            payload["m"] = draw(st.one_of(_INTS, _JUNK))
        elif part == "no vectors":
            payload["vectors"] = []
        elif part == "vectors":
            payload["vectors"] = draw(_JUNK)
        elif part == "vector" and payload["vectors"]:
            vectors = payload["vectors"]
            _mutate_vector(draw, vectors[draw(st.integers(0, len(vectors) - 1))])
        elif part == "foreign vector":
            payload["vectors"].append(draw(_vector_payloads()))
    return payload


@given(_ANY_SHAPE)
def test_fuzzed_shapes_load_or_raise_data_error(data):
    try:
        shape = shape_from_jsonable(data)
    except DataError:
        return
    assert list(shape.block_sizes) == data


@given(_vector_payloads())
def test_fuzzed_vector_payloads_load_or_raise_data_error(payload):
    try:
        vec = vector_from_jsonable(payload)
    except DataError:
        return
    assert (list(vec.shape.block_sizes), vec.m) == (payload["shape"], payload["m"])
    assert np.isfinite(vec.flatten()).all()


@given(_submodule_payloads())
@example({"shape": [2**31, 2], "m": 2**31, "vectors": []})  # bases numpy cannot size
def test_fuzzed_submodule_payloads_load_or_raise_data_error(payload):
    try:
        sub = submodule_from_jsonable(payload)
    except DataError:
        return
    assert (list(sub.shape.block_sizes), sub.m) == (payload["shape"], payload["m"])
    assert sub.dim <= sub.ambient_dim


# -- fuzzing: operator payloads, the flat conversion against the entry path --

_NUMBERS = st.one_of(_LEAVES, st.integers(min_value=2**1024))  # and ints past any float


@st.composite
def _operator_payloads(draw):
    """An operator on a shape mixing block sizes and singletons, with one
    row, entry, block, block row, pair or number (possibly none) replaced."""
    shape = AlgebraShape(tuple(draw(st.sampled_from([[1, 1, 2], [2, 3]]))))
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    f = random_map(shape, m, n, np.random.default_rng(draw(st.integers(0, 99))))
    payload = operator_to_jsonable(f)
    entries = payload["entries"]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    b = draw(st.integers(0, shape.num_blocks - 1))
    r, c = (draw(st.integers(0, shape.block_sizes[b] - 1)) for _ in range(2))
    part = draw(st.sampled_from(["keep", "row", "entry", "block", "block row", "pair", "number"]))
    if part == "row":
        entries[i] = draw(_JUNK)
    elif part == "entry":
        entries[i][j] = draw(_JUNK)
    elif part == "block":
        entries[i][j][b] = draw(_JUNK)
    elif part == "block row":
        entries[i][j][b][r] = draw(_JUNK)
    elif part == "pair":
        entries[i][j][b][r][c] = draw(_JUNK)
    elif part == "number":
        entries[i][j][b][r][c][draw(st.integers(0, 1))] = draw(_NUMBERS)
    return payload


def _one_number(number) -> dict:
    return {"shape": [1], "domain": 1, "codomain": 1, "entries": [[[[[number]]]]]}


@given(_operator_payloads())
@example(_one_number([1.0, 2**1024]))  # too large for a float
@example(_one_number([[1.0], [0.0]]))  # every number a list: numpy would add an axis
def test_fuzzed_operator_payloads_convert_like_the_entry_path(payload):
    try:
        f = operator_from_jsonable(payload)
    except DataError:
        return
    shape = AlgebraShape(tuple(payload["shape"]))
    # whatever loads took the flat conversion, whose bits are the entry path's
    assert _blocks_from_entries(shape, payload["entries"], f.m, f.n) is not None
    rows = [[element_from_jsonable(shape, e) for e in row] for row in payload["entries"]]
    expect = AdjointableMap.from_entries(rows)
    assert [a.tobytes() for a in f.blocks] == [a.tobytes() for a in expect.blocks]
