"""JSON schemas, canonical emission, and the error diagnostics they promise.

The reader's oracle is :func:`_strict_read`, a pure-Python walk of an
entry nest written here from the file format alone; the submodule
writer's is the vector-wise writer of ``element_oracle``, one dense basis
vector at a time.
"""

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
from modop.modules import Submodule
from modop.randgen import parse_shape, random_map, random_submodule
from modop.serialize import (
    dumps_canonical,
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
)

import element_oracle
from element_oracle import (
    AlgebraElement,
    ModuleVector,
    element_to_jsonable,
    entry,
    random_vector_flat,
    span_vectors,
    vector_to_jsonable,
)


def _finite_number(x) -> bool:
    """A JSON number (RFC 8259 §6: a float, or an int that is not a bool),
    finite once read as a float."""
    if type(x) not in (float, int):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


def _strict_read(shape: AlgebraShape, rows, m: int, row: str):
    """Per row, per element, the complex block matrices of a nest of rows
    of m elements (an element: per block, an n_b x n_b matrix of
    [re, im] pairs); or, if any row, element, block, block row, pair or
    number is malformed, the path of the first in file order."""
    out = []
    for i, elements in enumerate(rows):
        path = row.format(i)
        if type(elements) is not list or len(elements) != m:
            return path
        read = []
        for j, element in enumerate(elements):
            where = f"{path}[{j}]"
            if type(element) is not list or len(element) != shape.num_blocks:
                return where
            blocks = []
            for b, (block, nb) in enumerate(zip(element, shape.block_sizes)):
                at = f"{where}.block[{b}]"
                if type(block) is not list or len(block) != nb:
                    return at
                mat = np.zeros((nb, nb), complex)
                for r, block_row in enumerate(block):
                    if type(block_row) is not list or len(block_row) != nb:
                        return f"{at}[{r}]"
                    for c, pair in enumerate(block_row):
                        if type(pair) is not list or len(pair) != 2:
                            return f"{at}[{r}][{c}]"
                        for p, x in enumerate(pair):
                            if not _finite_number(x):
                                return f"{at}[{r}][{c}][{p}]"
                        mat[r, c] = complex(float(pair[0]), float(pair[1]))
                blocks.append(mat)
            read.append(blocks)
        out.append(read)
    return out


def _same_bits(a, b) -> bool:
    return [x.tobytes() for x in a] == [x.tobytes() for x in b]


@pytest.mark.parametrize("text, m", [("1^6,2^3,3", 2), ("16", 4), ("2,3", 2)])
def test_grouped_operator_io_matches_the_entrywise_path(text, m, rng):
    # one tolist per block-size group writes the JSON values the per-entry
    # element path writes, and reading them back restores every bit
    f = random_map(parse_shape(text), m, m + 1, rng)
    data = operator_to_jsonable(f)
    assert data["entries"] == [
        [element_to_jsonable(entry(f, i, j)) for j in range(f.m)] for i in range(f.n)
    ]
    g = operator_from_jsonable(json.loads(json.dumps(data)))
    assert all(np.array_equal(a, b) for a, b in zip(g.blocks, f.blocks))


def test_operator_roundtrip(shape23, rng):
    f = random_map(shape23, 3, 2, rng)
    g = operator_from_jsonable(operator_to_jsonable(f))
    assert g.shape == f.shape and (g.m, g.n) == (f.m, f.n)
    assert g.allclose(f)


def test_vector_roundtrip(shape23, rng):
    # a vector is read as part of a submodule file: the file of one vector
    # loads as the submodule the vector spans, bit for bit
    v = ModuleVector.from_flat(shape23, 2, random_vector_flat(shape23, 2, rng))
    sub = submodule_from_jsonable({"shape": [2, 3], "m": 2, "vectors": [vector_to_jsonable(v)]})
    assert _same_bits(sub.groups.stacks, span_vectors([v]).groups.stacks)
    assert sub.dim == 2 * 2 + 3 * 3  # one generic vector spans every column position


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_entries_rejected(shape23, rng, bad):
    flat = random_vector_flat(shape23, 2, rng)
    vec = vector_to_jsonable(ModuleVector.from_flat(shape23, 2, flat))
    vec["entries"][1][1][2][0] = [0.0, bad]
    sub = {"shape": [2, 3], "m": 2, "vectors": [vec]}
    with pytest.raises(DataError) as exc:
        submodule_from_jsonable(sub)
    assert str(exc.value).startswith("vectors[0]: entries[1].block[1][2][0][1]: ")
    assert "finite" in str(exc.value)
    op = operator_to_jsonable(random_map(shape23, 1, 1, rng))
    op["entries"][0][0][0][1][1] = [bad, 0.0]
    with pytest.raises(DataError) as exc:
        operator_from_jsonable(op)
    assert str(exc.value).startswith("entries[0][0].block[0][1][1][0]: ")


def _lists(item) -> list:
    """Every list in a JSON payload, nested ones included."""
    if isinstance(item, dict):
        return [x for v in item.values() for x in _lists(v)]
    if isinstance(item, list):
        return [item] + [x for v in item for x in _lists(v)]
    return []


_WRITTEN = [  # (shape, module rank, column rank per block)
    ("2,3", 2, (1, 3)),
    ("2,3", 3, (0, 4)),  # a zero-width block
    ("1^6,2^3,3", 2, (1, 2, 0, 1, 2, 2, 3, 0, 4, 5)),  # one block size in several groups
    ("1^6,2^3,3", 1, (1,) * 6 + (2,) * 3 + (3,)),
    ("1^64", 4, (2,) * 64),
]


@pytest.mark.parametrize("text, m, ranks", _WRITTEN)
def test_grouped_submodule_writer_matches_the_vectorwise_writer(text, m, ranks, rng):
    # one tolist per group writes the file the basis vectors, written one
    # dense vector at a time, write; it loads back as the submodule
    shape = parse_shape(text)
    subs = [
        random_submodule(shape, m, rng, ranks=ranks),
        Submodule.zero(shape, m),
        Submodule.full(shape, m),
    ]
    for sub in subs:
        payload = submodule_to_jsonable(sub)
        oracle = element_oracle.submodule_to_jsonable(sub)
        assert dumps_canonical(payload) == dumps_canonical(oracle)
        assert len(payload["vectors"]) == sub.dim
        assert submodule_from_jsonable(json.loads(dumps_canonical(payload))).equals(sub)


@pytest.mark.parametrize("text, m, ranks", _WRITTEN[:3])
def test_written_submodule_lists_are_fresh(text, m, ranks, rng):
    # no list is shared: one edited number changes its vector alone
    payload = submodule_to_jsonable(random_submodule(parse_shape(text), m, rng, ranks=ranks))
    lists = _lists(payload)
    assert len({id(x) for x in lists}) == len(lists)
    before = [dumps_canonical(v) for v in payload["vectors"]]
    for i, vector in enumerate(payload["vectors"]):
        last = len(vector["entries"][-1]) - 1  # the last block: zero in vectors of the others
        vector["entries"][-1][last][0][0][1] = 7.0
        vector["shape"].append(1)
        after = [dumps_canonical(v) for v in payload["vectors"]]
        assert after[:i] == before[:i] and after[i + 1 :] == before[i + 1 :]
        assert after[i] != before[i]
        before[i] = after[i]


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
    return (list(shape.block_sizes), m), payload  # the module it was written for


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
            payload["vectors"].append(draw(_vector_payloads())[1])
    return payload


@given(_ANY_SHAPE)
def test_fuzzed_shapes_load_or_raise_data_error(data):
    try:
        shape = shape_from_jsonable(data)
    except DataError:
        return
    assert list(shape.block_sizes) == data


def _expected_submodule(payload: dict, tol=None):
    """What a well-formed submodule header with these vectors loads as:
    the span of the strictly read vectors, or the start of the error that
    names the first bad vector or item."""
    shape, m, vectors = AlgebraShape(tuple(payload["shape"])), payload["m"], payload["vectors"]
    header = json.dumps([payload["shape"], m])  # json text tells 2 from 2.0 and 1 from true
    for i, v in enumerate(vectors):
        if not isinstance(v, dict):
            return f"vectors[{i}]: "
        if json.dumps([v.get("shape", payload["shape"]), v.get("m", m)]) != header:
            return f"vectors[{i}]: lives in a different module"
    read = _strict_read(shape, [v.get("entries") for v in vectors], m, "vectors[{}]: entries")
    if isinstance(read, str):
        return f"{read}: "
    elements = [[AlgebraElement(shape, tuple(blocks)) for blocks in row] for row in read]
    return span_vectors([ModuleVector(shape, m, tuple(row)) for row in elements])


def _one_vector(number) -> tuple:
    return ([1], 1), {"shape": [1], "m": 1, "entries": [[[[number]]]]}


@given(_vector_payloads())
@example(_one_vector([1.0, 2**1024]))  # too large for a float
@example(_one_vector(["1.5", 0.0]))  # strings, booleans and null numpy would cast
@example(_one_vector([" 2 ", 0.0]))
@example(_one_vector([0.0, True]))
@example(_one_vector([None, 0.0]))
def test_fuzzed_vector_payloads_load_or_raise_data_error(vector):
    # each payload is the one vector of a submodule file in the module it
    # was written for, which its own "shape" and "m" may no longer name
    (shape, m), payload = vector
    file = {"shape": shape, "m": m, "vectors": [payload]}
    expect = _expected_submodule(file)
    try:
        sub = submodule_from_jsonable(file)
    except DataError as exc:
        assert isinstance(expect, str) and str(exc).startswith(expect)
        return
    assert isinstance(expect, Submodule)
    assert _same_bits(sub.groups.stacks, expect.groups.stacks)


@given(_submodule_payloads())
@example({"shape": [2**31, 2], "m": 2**31, "vectors": []})  # bases numpy cannot size
def test_fuzzed_submodule_payloads_load_or_raise_data_error(payload):
    try:
        sub = submodule_from_jsonable(payload)
    except DataError:
        return
    assert (list(sub.shape.block_sizes), sub.m) == (payload["shape"], payload["m"])
    assert sub.dim <= sub.ambient_dim
    if payload["vectors"]:  # a header that loads: its vectors read as the strict walk reads them
        assert _same_bits(sub.groups.stacks, _expected_submodule(payload).groups.stacks)


# -- fuzzing: operator payloads, the flat conversion against the strict walk --

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
@example(_one_number(["1.5", 0.0]))  # strings, booleans and null numpy would cast
@example(_one_number([" 2 ", 0.0]))
@example(_one_number([0.0, True]))
@example(_one_number([None, 0.0]))
@example(_one_number({"re": 1.0, "im": 0.0}))  # an object of two keys flattens into strings
def test_fuzzed_operator_payloads_convert_like_a_strict_walk(payload):
    shape = AlgebraShape(tuple(payload["shape"]))
    read = _strict_read(shape, payload["entries"], payload["domain"], "entries[{}]")
    try:
        f = operator_from_jsonable(payload)
    except DataError as exc:
        assert isinstance(read, str) and str(exc).startswith(f"{read}: ")
        return
    assert not isinstance(read, str)
    expect = [np.block([[e[b] for e in row] for row in read]) for b in range(shape.num_blocks)]
    assert _same_bits(f.blocks, expect)
