"""Outside-in layer trace: wrappers around modop's public callables and
around ``numpy.linalg``, installed for a traced run and removed after.

A layer is one modop module.  A span opens when control crosses into a
public callable of a layer from another layer (calls inside one layer
stay in the span already open).  ``numpy.linalg`` is the kernel
boundary: its calls are spans of their own, ``linalg.svd`` or
``linalg.other``, and never have children.

Self time of a span is its duration minus the time of its children.
Children on the same thread are nested spans.  Children on other threads
are the spans a worker thread opens while its own stack is empty (the
``run_suite`` pool); they are charged to the span open on the thread
that runs the command, as the union of their intervals clipped to that
span, because that thread waits while they run.

Span stacks are per thread; counters are shared and updated under a
lock.  Nothing records while no command is running.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import threading
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

from arith import union_length

LAYERS = (
    "algebra",
    "modules",
    "subspace",
    "linmap",
    "fredholm",
    "drazin",
    "geometry",
    "banach",
    "probes",
    "randgen",
    "serialize",
    "cli",
)

# Operator dunders count as public: ``f @ g`` and ``a * x`` cross into
# the module as much as ``f.power(k)`` does, and ``__post_init__`` is the
# validation every constructor call runs.
PUBLIC_DUNDERS = frozenset(
    {"__add__", "__sub__", "__mul__", "__rmul__", "__matmul__", "__neg__", "__post_init__"}
)

LINALG_FUNCS = (
    "svd",
    "qr",
    "inv",
    "norm",
    "eig",
    "eigh",
    "eigvals",
    "eigvalsh",
    "solve",
    "lstsq",
    "pinv",
    "matrix_rank",
    "det",
    "slogdet",
    "cholesky",
    "matrix_power",
)


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "cross")

    def __init__(self, layer: str, name: str, start: int):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0
        self.cross: list[tuple[int, int]] = []


class Tracer:
    """Span bookkeeping; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner: list[_Frame] | None = None
        self.active = False
        self.layer_calls: Counter[str] = Counter()
        self.layer_self_ns: Counter[str] = Counter()
        self.callable_calls: Counter[str] = Counter()
        self.callable_self_ns: Counter[str] = Counter()
        self.suite_ns: Counter[str] = Counter()
        self.suite_instances: Counter[str] = Counter()
        self.svd_calls = 0
        self.svd_matrices = 0
        self.svd_elements = 0
        self.svd_self_ns = 0
        self.svd_keys: set = set()
        self.other_calls = 0
        self.other_self_ns = 0
        self.root_ns = 0

    # -- command scope ----------------------------------------------------

    def begin_command(self) -> None:
        """The calling thread runs the command; worker spans charge it."""
        self._owner = self._stack()
        self.active = True

    def end_command(self) -> None:
        self.active = False
        self._owner = None

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge_parent(self, stack: list[_Frame], start: int, end: int) -> None:
        """Tell the enclosing span that [start, end] was not its own time."""
        if stack:
            stack[-1].child += end - start
            return
        owner = self._owner
        if owner is None:
            return
        if stack is owner:
            with self._lock:
                self.root_ns += end - start
        elif owner:
            with self._lock:
                owner[-1].cross.append((start, end))

    def open(self, layer: str, name: str) -> _Frame | None:
        """Open a span, or return None when the call stays inside the
        layer already open on this thread."""
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return None
        frame = _Frame(layer, name, self._clock())
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        """Close ``frame``, the innermost span of this thread."""
        end = self._clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        cross = union_length(frame.cross, frame.start, end)
        self_ns = max(duration - frame.child - cross, 0)
        with self._lock:
            self.layer_calls[frame.layer] += 1
            self.layer_self_ns[frame.layer] += self_ns
            self.callable_calls[frame.name] += 1
            self.callable_self_ns[frame.name] += self_ns
        self._charge_parent(stack, frame.start, end)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.open(layer, name)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        return traced

    def wrap_instance(self, suite: str, fn: Callable) -> Callable:
        """A verify suite's per-instance runner: a cli span that also
        adds its inclusive time to the suite's instance total."""
        inner = self.wrap("cli", f"cli.verify.{suite}", fn)
        tracer = self

        @functools.wraps(fn)
        def instance(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            start = tracer._clock()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = tracer._clock() - start
                with tracer._lock:
                    tracer.suite_ns[suite] += elapsed
                    tracer.suite_instances[suite] += 1

        return instance

    def wrap_linalg(self, name: str, fn: Callable) -> Callable:
        tracer = self
        is_svd = name == "svd"

        @functools.wraps(fn)
        def kernel(a: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(a, *args, **kwargs)
            entered = tracer._clock()
            if is_svd:
                key, matrices, elements = _svd_key(a, args, kwargs)
            start = tracer._clock()
            try:
                return fn(a, *args, **kwargs)
            finally:
                end = tracer._clock()
                with tracer._lock:
                    if is_svd:
                        tracer.svd_calls += 1
                        tracer.svd_matrices += matrices
                        tracer.svd_elements += elements
                        tracer.svd_self_ns += end - start
                        tracer.svd_keys.add(key)
                    else:
                        tracer.other_calls += 1
                        tracer.other_self_ns += end - start
                # Hashing is trace overhead, not the caller's work.
                tracer._charge_parent(tracer._stack(), entered, end)

        return kernel


def _svd_key(a: Any, args: tuple, kwargs: dict) -> tuple[tuple, int, int]:
    arr = np.ascontiguousarray(a)
    if arr.ndim < 2:
        return (arr.shape, arr.dtype.str, b"", args), 1, arr.size
    rows, cols = arr.shape[-2:]
    matrices = 1
    for d in arr.shape[:-2]:
        matrices *= d
    digest = hashlib.blake2b(arr.tobytes(), digest_size=16).digest()
    flags = (args, tuple(sorted(kwargs.items())))
    return (arr.shape, arr.dtype.str, digest, flags), matrices, matrices * rows * cols


# ---------------------------------------------------------------------------
# installing the wrappers


def _wrap_class(tracer: Tracer, layer: str, cls: type, undo: list) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in PUBLIC_DUNDERS:
            continue
        label = f"{layer}.{cls.__name__}.{name}"
        if isinstance(attr, classmethod):
            new: Any = classmethod(tracer.wrap(layer, label, attr.__func__))
        elif isinstance(attr, staticmethod):
            new = staticmethod(tracer.wrap(layer, label, attr.__func__))
        elif isinstance(attr, property):
            if attr.fget is None:
                continue
            new = property(tracer.wrap(layer, label, attr.fget), attr.fset, attr.fdel, attr.__doc__)
        elif isinstance(attr, functools.cached_property):
            new = functools.cached_property(tracer.wrap(layer, label, attr.func))
            new.__set_name__(cls, name)
        elif inspect.isfunction(attr):
            new = tracer.wrap(layer, label, attr)
        else:
            continue
        undo.append((cls, name, attr))
        setattr(cls, name, new)


def install(tracer: Tracer, package: Any) -> Callable[[], None]:
    """Wrap every layer of ``package`` (the imported ``modop``) and
    ``numpy.linalg``; returns the function that restores them."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    undo: list[tuple[Any, str, Any]] = []
    replaced: dict[int, Callable] = {}

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj, undo)
            elif callable(obj):
                replaced[id(obj)] = tracer.wrap(layer, f"{layer}.{name}", obj)

    # Rebind every copy made by ``from .x import y``, the package's
    # re-exports included.
    holders = [package, *modules.values()]
    holders += [
        importlib.import_module(f"{package.__name__}.{extra}") for extra in ("errors", "tolerances")
    ]
    for mod in holders:
        for name, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                undo.append((mod, name, obj))
                setattr(mod, name, wrapper)

    suites = modules["cli"].SUITES
    original_suites = dict(suites)
    for suite, runner in original_suites.items():
        suites[suite] = tracer.wrap_instance(suite, runner)

    for name in LINALG_FUNCS:
        fn = getattr(np.linalg, name, None)
        if fn is not None:
            undo.append((np.linalg, name, fn))
            setattr(np.linalg, name, tracer.wrap_linalg(name, fn))

    def uninstall() -> None:
        for holder, name, obj in reversed(undo):
            setattr(holder, name, obj)
        suites.clear()
        suites.update(original_suites)

    return uninstall
