"""JSON (de)serialization for algebra data, operators, and reports.

File formats
------------
shape      -- a JSON array of block sizes, e.g. ``[2, 3]``.
operator   -- ``{"shape": [...], "domain": m, "codomain": n,
                "entries": [[element, ...], ...]}``: codomain-many rows
                of domain-many elements.
submodule  -- ``{"shape": [...], "m": k, "vectors": [vector, ...]}``: a
                spanning set, spanned block by block on loading.

An element is one row-major matrix of ``[re, im]`` pairs per block; a
vector is ``{"entries": [element, ...]}`` with m elements, and may repeat
the file's ``"shape"`` and ``"m"``.  So both files are nests of elements
(a submodule's rows are its vectors), and one reader converts both,
:func:`_blocks_from_nest`: it checks each level's lengths and flattens
it at C speed, requires every leaf to be a finite JSON number (RFC 8259
§6: a ``float``, or an ``int`` that is not a ``bool``), and turns a size
group's numbers into one float array, reshaped into its stack.  On any
failure it names the first bad item by its path, such as
``entries[i][j].block[b][r][c][p]`` or ``vectors[i]: entries[j]...``.
Writing takes one ``tolist`` per group, on a float view of its stack for
an operator and of its basis vectors' blocks for a submodule, which
writes its orthonormal basis vectors (one per basis column and position).

Report emission is write-only: a generic walker keeps scalars,
dimension data, margins, residuals, and K0 classes, and drops raw
matrices.  Floats are printed in fixed 17-significant-digit scientific
form and dictionary keys are emitted sorted, so identical reports are
identical bytes (non-finite values become the strings "inf"/"-inf"/"nan",
which JSON numbers cannot carry).  A list of plain integers (K0 classes,
rank chains, sizes) is written with one join.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import cached_property
from itertools import chain
from typing import Any

import numpy as np

from .algebra import AlgebraShape
from .errors import DataError
from .linmap import AdjointableMap
from .modules import K0Class, Submodule
from .subspace import Grouped, _spans
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "dumps_canonical",
    "shape_to_jsonable",
    "shape_from_jsonable",
    "operator_to_jsonable",
    "operator_from_jsonable",
    "submodule_to_jsonable",
    "submodule_from_jsonable",
    "report_to_jsonable",
    "load_json",
    "load_operator",
    "load_submodule",
    "load_geometry_operand",
    "save_json",
]


# ---------------------------------------------------------------------------
# canonical emission


def _float_token(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.16e}"


def dumps_canonical(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_token(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        if not items:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps_canonical(v, indent + 2)}" for k, v in items
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:  # K0 classes, rank chains, sizes (bools excluded)
            return "[" + ", ".join(map(str, obj)) + "]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
        inner = ",\n".join(f"{pad}  {dumps_canonical(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise DataError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# core schemas


def _positive_int(x: Any) -> bool:
    """A JSON integer >= 1; JSON true/false load as bool, an int subclass."""
    return type(x) is int and x >= 1


def shape_to_jsonable(shape: AlgebraShape) -> list[int]:
    return list(shape.block_sizes)


def shape_from_jsonable(data: Any) -> AlgebraShape:
    if not isinstance(data, list) or not data or not all(_positive_int(x) for x in data):
        raise DataError(f"'shape' must be a nonempty list of positive integers, got {data!r}")
    return AlgebraShape(tuple(data))


def _rows_of_elements(shape: AlgebraShape, rows: int, cols: int, groups) -> list:
    """A rows x cols nest of elements from the (rows, cols, slot) nests of
    blocks that ``groups`` yields with their positions, one per group, in
    order: the lists of a group that holds every block are the nest."""
    k, out = shape.num_blocks, None
    for lists, idx in groups:
        if len(idx) == k:
            return lists
        out = out or [[[None] * k for _ in range(cols)] for _ in range(rows)]
        positions = idx.tolist()
        for row, parts in zip(out, lists):
            for element, blocks in zip(row, parts):
                for b, blk in zip(positions, blocks):
                    element[b] = blk
    return out


def operator_to_jsonable(f: AdjointableMap) -> dict:
    """The inverse of :func:`_blocks_from_nest`: one ``tolist`` per
    block-size group, on a float view of its stack."""

    def group(stack: np.ndarray, idx: np.ndarray) -> tuple[list, np.ndarray]:
        cnt, nb = len(idx), stack.shape[-1] // f.m
        # row i*nb + r, column j*nb + c of block slot s -> entry (i, j), block s, element (r, c)
        parts = np.ascontiguousarray(stack.reshape(cnt, f.n, nb, f.m, nb).transpose(1, 3, 0, 2, 4))
        return parts.view(np.float64).reshape(f.n, f.m, cnt, nb, nb, 2).tolist(), idx

    entries = _rows_of_elements(f.shape, f.n, f.m, map(group, f.groups.stacks, f.groups.members))
    return {"shape": shape_to_jsonable(f.shape), "domain": f.m, "codomain": f.n, "entries": entries}


def _header(data: Any, kind: str, nest: str, *counts: str) -> tuple:
    """The shape and the positive integers ``counts`` of an operator or a
    submodule object, whose field ``nest`` must be a list."""
    if not isinstance(data, dict):
        raise DataError(f"{kind}: expected an object")
    if missing := {"shape", nest, *counts} - set(data):
        raise DataError(f"{kind}: missing fields {sorted(missing)}")
    shape = shape_from_jsonable(data["shape"])
    for key in counts:
        if not _positive_int(data[key]):
            raise DataError(f"{kind}: '{key}' must be a positive integer, got {data[key]!r}")
    if not isinstance(data[nest], list):
        raise DataError(f"{kind}: '{nest}' must be a list")
    return (shape, *(data[key] for key in counts))


def operator_from_jsonable(data: Any) -> AdjointableMap:
    shape, m, n = _header(data, "operator", "entries", "domain", "codomain")
    if len(data["entries"]) != n:
        raise DataError(f"operator: 'entries' must have {n} rows")
    return AdjointableMap._of_groups(shape, m, n, _blocks_from_nest(shape, data["entries"], m))


_NUMBER_TYPES = {float, int}  # of a JSON number once loaded; a bool is its own type


def _flatten(level: list, sizes: tuple[int, ...]) -> list:
    """The items ``len(sizes)`` levels down a nest whose items d levels down
    have ``sizes[d]`` members (strings or objects flatten into strings)."""
    for size in sizes:
        if set(map(len, level)) != {size}:
            raise ValueError
        level = list(chain.from_iterable(level))
    return level


def _blocks_from_nest(
    shape: AlgebraShape, entries: list, m: int, row: str = "entries[{}]", tall: bool = False
) -> Grouped:
    """Compressed blocks of a nest of n = len(entries) rows of m elements,
    one float conversion per block size: element (i, j)'s block b at rows
    i*n_b, columns j*n_b of block b (the block transpose when ``tall``).
    On a malformed row, element, block or number, raises DataError naming
    the first in file order, ``row.format(i)`` the path of row i."""
    n, k = len(entries), shape.num_blocks
    stacks = []
    try:
        blocks = _flatten(entries, (m, k))  # in (row i, column j, block b) order
        for idx in shape.size_groups:
            nb, cnt = shape.block_sizes[idx[0]], len(idx)
            picked = blocks  # a shape of one block size takes every block
            if cnt < k:
                where = (np.arange(n * m)[:, None] * k + idx).ravel().tolist()
                picked = list(map(blocks.__getitem__, where))
            leaves = _flatten(picked, (nb, nb, 2))  # block rows, [re, im] pairs, numbers
            arr = np.array(leaves, dtype=float)
            if not (set(map(type, leaves)) <= _NUMBER_TYPES and np.isfinite(arr).all()):
                raise ValueError
            # entry (i, j), block slot s, element (r, c) -> slot s, row i*nb + r, column j*nb + c
            axes = (2, 1, 3, 0, 4, 5) if tall else (2, 0, 3, 1, 4, 5)
            arr = np.ascontiguousarray(arr.reshape(n, m, cnt, nb, nb, 2).transpose(axes))
            stacks.append(arr.view(np.complex128).reshape(cnt, arr.shape[1] * nb, -1))
    except (TypeError, ValueError, OverflowError):
        for i, elements in enumerate(entries):
            for j, element in enumerate(_checked(elements, m, row.format(i))):
                where = f"{row.format(i)}[{j}]"
                for b, block in enumerate(_checked(element, k, where)):
                    _check_nest(block, (shape.block_sizes[b],) * 2 + (2,), f"{where}.block[{b}]")
        raise AssertionError("the flat conversion rejected a well-formed nest") from None
    return Grouped(stacks, shape.size_groups)


def _check_nest(item: Any, sizes: tuple[int, ...], where: str) -> None:
    """``item`` is a nest of lists ``sizes[d]`` long at depth d over finite
    JSON numbers, or :class:`DataError` names its first bad part."""
    if sizes:
        for p, x in enumerate(_checked(item, sizes[0], where)):
            _check_nest(x, sizes[1:], f"{where}[{p}]")
        return
    try:
        finite = type(item) in _NUMBER_TYPES and math.isfinite(item)
    except OverflowError:  # an integer past float range
        finite = False
    if not finite:
        raise DataError(f"{where}: expected a finite number in float range, got {_shown(item)}")


def _checked(item: Any, size: int, where: str) -> list:
    if not isinstance(item, list) or len(item) != size:
        raise DataError(f"{where}: expected a list of {size}, got {_shown(item)}")
    return item


def _shown(item: Any) -> str:
    """At most 24 characters of an item's JSON text, for an error line."""
    text = json.dumps(item)
    return text if len(text) <= 24 else text[:21] + "..."


def submodule_to_jsonable(sub: Submodule) -> dict:
    """The basis vectors, in (block b, column j, position t) order: vector
    (b, j, t) has column j of ``column_bases[b]`` as column t of its block-b
    tall form, and zeros elsewhere.  Per group, one zero array holds every
    vector's blocks of that group, takes the group's columns, and is
    written by one ``tolist`` on its float view, so every list is fresh."""
    shape, m = sub.shape, sub.m
    firsts = np.cumsum([0, *(w * n for w, n in zip(sub.k0().entries, shape.block_sizes))])
    count = int(firsts[-1])

    def group(basis: np.ndarray, idx: np.ndarray) -> tuple[list, np.ndarray]:
        cnt, nb, width = len(idx), shape.block_sizes[idx[0]], basis.shape[-1]
        blocks = np.zeros((count, m, cnt, nb, nb), complex)  # vector, entry i, slot s, row, column
        # vector (b, j, t), b the block of slot s: entry i's block holds
        # rows i*nb .. (i+1)*nb of column j, in column t
        rows = firsts[idx, None, None] + np.arange(width * nb).reshape(width, nb)
        columns = basis.reshape(cnt, m, nb, width).transpose(0, 3, 1, 2)[:, :, None]
        blocks[rows, :, np.arange(cnt)[:, None, None], :, np.arange(nb)] = columns
        return blocks.view(np.float64).reshape(count, m, cnt, nb, nb, 2).tolist(), idx

    entries = _rows_of_elements(shape, count, m, map(group, sub.groups.stacks, sub.groups.members))
    vectors = [{"shape": shape_to_jsonable(shape), "m": m, "entries": e} for e in entries]
    return {"shape": shape_to_jsonable(shape), "m": m, "vectors": vectors}


def submodule_from_jsonable(data: Any, tol: ToleranceConfig = DEFAULT_TOL) -> Submodule:
    shape, m = _header(data, "submodule", "vectors", "m")
    raw = data["vectors"]
    if not raw:
        try:
            return Submodule.zero(shape, m)
        except ValueError as exc:  # more basis rows than numpy can index
            raise DataError(f"submodule: A^{m} over {shape_to_jsonable(shape)} is too large") from exc
    for i, v in enumerate(raw):
        if not isinstance(v, dict):
            raise DataError(f"vectors[{i}]: expected an object")
        own = v.get("shape", data["shape"]), v.get("m", m)
        if own != (data["shape"], m) or set(map(type, (*own[0], own[1]))) != {int}:
            raise DataError(f"vectors[{i}]: lives in a different module "
                            "(its 'shape' and 'm' must be the file's integers)")
    entries = [v.get("entries") for v in raw]  # per block, the vectors' tall forms side by side
    talls = _blocks_from_nest(shape, entries, m, "vectors[{}]: entries", tall=True)
    return Submodule._of_groups(shape, m, _spans(talls, tol, scale=1.0))


# ---------------------------------------------------------------------------
# report walking


def report_to_jsonable(obj: Any) -> Any:
    """Strip a report down to its JSON-safe content.

    Keeps scalars, strings, K0 classes, dimensions, margins, residual
    dictionaries, and nested reports; drops raw matrices and bases, and
    the dataclass fields marked ``metadata={"report": False}`` (the maps
    and submodules a record was built on).  A record's public cached
    properties (numbers only a report reads) are reported like its fields.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, K0Class):
        return list(obj.entries)
    if isinstance(obj, AlgebraShape):
        return shape_to_jsonable(obj)
    if isinstance(obj, Submodule):
        return {"k0": list(obj.k0().entries), "dim": obj.dim}
    if isinstance(obj, AdjointableMap):
        return {
            "shape": shape_to_jsonable(obj.shape),
            "domain": obj.m,
            "codomain": obj.n,
            "norm": obj.norm(),
        }
    if isinstance(obj, np.ndarray):
        return None
    if isinstance(obj, dict):
        return {str(k): report_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if obj and all(isinstance(v, np.ndarray) for v in obj):
            return None  # a basis/block tuple, dropped like a lone matrix
        return [report_to_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj) if f.metadata.get("report", True)]
        names += [k for k, v in vars(type(obj)).items()
                  if isinstance(v, cached_property) and not k.startswith("_")]
        out = {}
        for name in names:
            raw = getattr(obj, name)
            if (val := report_to_jsonable(raw)) is not None or raw is None:
                out[name] = val
        return out
    return None


# ---------------------------------------------------------------------------
# file helpers


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _load(path: str, parse) -> Any:
    """``parse`` of a file's JSON, its data errors prefixed with the path."""
    data = load_json(path)
    try:
        return parse(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_operator(path: str) -> AdjointableMap:
    return _load(path, operator_from_jsonable)


def load_submodule(path: str, tol: ToleranceConfig = DEFAULT_TOL) -> Submodule:
    return _load(path, lambda data: submodule_from_jsonable(data, tol))


def load_geometry_operand(path: str, tol: ToleranceConfig = DEFAULT_TOL):
    """Operator or submodule file, distinguished by its fields."""
    return _load(path, lambda data: _geometry_operand(data, tol))


def _geometry_operand(data: Any, tol: ToleranceConfig):
    if isinstance(data, dict) and "vectors" in data:
        return submodule_from_jsonable(data, tol)
    if isinstance(data, dict) and "entries" in data:
        return operator_from_jsonable(data)
    raise DataError("neither an operator ('entries') nor a submodule ('vectors') file")


def save_json(path: str, payload: Any) -> None:
    text = dumps_canonical(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
