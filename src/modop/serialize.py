"""JSON (de)serialization for algebra data, operators, and reports.

File formats
------------
shape      -- a JSON array of block sizes, e.g. ``[2, 3]``.
element    -- one row-major matrix of ``[re, im]`` pairs per block.
vector     -- ``{"shape": [...], "m": k, "entries": [element, ...]}``.
operator   -- ``{"shape": [...], "domain": m, "codomain": n,
                "entries": [[element, ...], ...]}`` (codomain-many rows
                of domain-many algebra elements).
submodule  -- ``{"shape": [...], "m": k, "vectors": [vector-entries...]}``;
                the vectors are a spanning set, not necessarily
                orthonormal — loading re-orthonormalizes and closes
                under the algebra action.

Every matrix entry must be finite: ``inf``/``nan`` (JSON ``1e999``,
``NaN``) are rejected with :class:`~modop.errors.DataError` before any
numerical work runs, by the one check :func:`~modop.linmap.require_finite`:
once per loaded vector and once per loaded operator (converted blockwise,
or entry by entry when malformed, so the error names the bad entry).

Report emission is write-only: a generic walker keeps scalars,
dimension data, margins, residuals, and K0 classes, and drops raw
matrices.  Floats are printed in fixed 17-significant-digit scientific
form and dictionary keys are emitted sorted, so identical reports are
identical bytes (non-finite values become the strings "inf"/"-inf"/"nan",
which JSON numbers cannot carry).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import DataError, ModopError
from .linmap import AdjointableMap, require_finite
from .modules import K0Class, ModuleVector, Submodule, submodule_span
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "dumps_canonical",
    "shape_to_jsonable",
    "shape_from_jsonable",
    "element_to_jsonable",
    "element_from_jsonable",
    "vector_to_jsonable",
    "vector_from_jsonable",
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
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
        inner = ",\n".join(f"{pad}  {dumps_canonical(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise DataError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# core schemas


def shape_to_jsonable(shape: AlgebraShape) -> list[int]:
    return list(shape.block_sizes)


def shape_from_jsonable(data: Any) -> AlgebraShape:
    if not isinstance(data, list) or not all(isinstance(x, int) and x >= 1 for x in data):
        raise DataError(f"'shape' must be a list of positive integers, got {data!r}")
    return AlgebraShape(tuple(data))


def _matrix_to_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, complex)]


def _matrix_from_pairs(data: Any, n: int, where: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: expected nested [re, im] lists ({exc})") from exc
    if arr.shape != (n, n, 2):
        raise DataError(f"{where}: expected shape ({n}, {n}, 2), got {arr.shape}")
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


def element_to_jsonable(a: AlgebraElement) -> list:
    return [_matrix_to_pairs(b) for b in a.blocks]


def element_from_jsonable(shape: AlgebraShape, data: Any, where: str = "element") -> AlgebraElement:
    if not isinstance(data, list) or len(data) != shape.num_blocks:
        raise DataError(f"{where}: expected {shape.num_blocks} blocks")
    blocks = tuple(
        _matrix_from_pairs(blk, n, f"{where}.block[{b}]")
        for b, (blk, n) in enumerate(zip(data, shape.block_sizes))
    )
    return AlgebraElement(shape, blocks)


def vector_to_jsonable(x: ModuleVector) -> dict:
    return {
        "shape": shape_to_jsonable(x.shape),
        "m": x.m,
        "entries": [element_to_jsonable(e) for e in x.entries],
    }


def vector_from_jsonable(data: Any) -> ModuleVector:
    if not isinstance(data, dict):
        raise DataError("vector: expected an object")
    shape = shape_from_jsonable(data.get("shape"))
    m = data.get("m")
    entries = data.get("entries")
    if not isinstance(m, int) or not isinstance(entries, list) or len(entries) != m:
        raise DataError(f"vector: need integer 'm' and exactly m 'entries' (m={m!r})")
    vec = ModuleVector(
        shape, m, tuple(element_from_jsonable(shape, e, f"entries[{i}]") for i, e in enumerate(entries))
    )
    require_finite([vec.flatten()], "vector")
    return vec


def operator_to_jsonable(f: AdjointableMap) -> dict:
    return {
        "shape": shape_to_jsonable(f.shape),
        "domain": f.m,
        "codomain": f.n,
        "entries": [
            [element_to_jsonable(f.entry(i, j)) for j in range(f.m)] for i in range(f.n)
        ],
    }


def operator_from_jsonable(data: Any) -> AdjointableMap:
    if not isinstance(data, dict):
        raise DataError("operator: expected an object")
    missing = {"shape", "domain", "codomain", "entries"} - set(data)
    if missing:
        raise DataError(f"operator: missing fields {sorted(missing)}")
    shape = shape_from_jsonable(data["shape"])
    m, n = data["domain"], data["codomain"]
    if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
        raise DataError(f"operator: domain/codomain must be positive integers ({m!r}, {n!r})")
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise DataError(f"operator: 'entries' must have {n} rows")
    blocks = _blocks_from_entries(shape, entries, m, n)
    if blocks is not None:
        require_finite(blocks, "map")
        return AdjointableMap(shape, m, n, tuple(blocks))
    # Malformed somewhere: parse entry by entry to name the first bad one.
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != m:
            raise DataError(f"operator: entries[{i}] must have {m} columns")
        rows.append(
            [element_from_jsonable(shape, e, f"entries[{i}][{j}]") for j, e in enumerate(row)]
        )
    return AdjointableMap.from_entries(rows)


def _blocks_from_entries(shape: AlgebraShape, entries: list, m: int, n: int) -> list | None:
    """Compressed blocks of a well-formed n x m entry list, one array
    conversion per block; None if any row, entry or block is malformed."""
    k = shape.num_blocks
    if not all(
        isinstance(row, list) and len(row) == m and all(isinstance(e, list) and len(e) == k for e in row)
        for row in entries
    ):
        return None
    try:
        arrs = [np.asarray([[e[b] for e in row] for row in entries], dtype=float) for b in range(k)]
    except (TypeError, ValueError):
        return None
    if any(a.shape != (n, m, nb, nb, 2) for a, nb in zip(arrs, shape.block_sizes)):
        return None
    # entry (i, j), element (r, c) -> row i*nb + r, column j*nb + c
    return [
        np.ascontiguousarray(a.transpose(0, 2, 1, 3, 4)).view(np.complex128).reshape(n * nb, m * nb)
        for a, nb in zip(arrs, shape.block_sizes)
    ]


def submodule_to_jsonable(sub: Submodule) -> dict:
    return {
        "shape": shape_to_jsonable(sub.shape),
        "m": sub.m,
        "vectors": [vector_to_jsonable(v) for v in sub.basis_vectors()],
    }


def submodule_from_jsonable(data: Any, tol: ToleranceConfig = DEFAULT_TOL) -> Submodule:
    if not isinstance(data, dict):
        raise DataError("submodule: expected an object")
    missing = {"shape", "m", "vectors"} - set(data)
    if missing:
        raise DataError(f"submodule: missing fields {sorted(missing)}")
    shape = shape_from_jsonable(data["shape"])
    m = data["m"]
    raw = data["vectors"]
    if not isinstance(raw, list):
        raise DataError("submodule: 'vectors' must be a list")
    if not raw:
        return Submodule.zero(shape, m)
    vectors = []
    for i, v in enumerate(raw):
        payload = dict(v) if isinstance(v, dict) else {}
        payload.setdefault("shape", shape_to_jsonable(shape))
        payload.setdefault("m", m)
        vec = vector_from_jsonable(payload)
        if vec.shape != shape or vec.m != m:
            raise DataError(f"submodule: vectors[{i}] lives in a different module")
        vectors.append(vec)
    return submodule_span(vectors, tol)


# ---------------------------------------------------------------------------
# report walking


def report_to_jsonable(obj: Any) -> Any:
    """Strip a report down to its JSON-safe content.

    Keeps scalars, strings, K0 classes, dimensions, margins, residual
    dictionaries, and nested reports; drops raw matrices and bases.
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
        out = {}
        for fld in dataclasses.fields(obj):
            val = report_to_jsonable(getattr(obj, fld.name))
            if val is not None or getattr(obj, fld.name) is None:
                out[fld.name] = val
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


def load_operator(path: str) -> AdjointableMap:
    data = load_json(path)
    try:
        return operator_from_jsonable(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_submodule(path: str, tol: ToleranceConfig = DEFAULT_TOL) -> Submodule:
    data = load_json(path)
    try:
        return submodule_from_jsonable(data, tol)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_geometry_operand(path: str, tol: ToleranceConfig = DEFAULT_TOL):
    """Operator or submodule file, distinguished by its fields."""
    data = load_json(path)
    if isinstance(data, dict) and "vectors" in data:
        return submodule_from_jsonable(data, tol)
    if isinstance(data, dict) and "entries" in data:
        return operator_from_jsonable(data)
    raise DataError(f"{path}: neither an operator ('entries') nor a submodule ('vectors') file")


def save_json(path: str, payload: Any) -> None:
    text = dumps_canonical(payload) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
