"""Fresh-interpreter probes: ``python -m modop analyze`` wall time, the
time to import a module, and the per-module import times
``python -X importtime`` reports.

Launches are made one at a time; each is waited for before the next.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import defaultdict

from arith import median

LAUNCH_TIMEOUT_S = 60


def _env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start(src: str, cwd: str, argv: list[str]) -> tuple[float, tuple[int, str, str]]:
    """Wall time in ms of one ``python -m modop <argv>`` launch, and its
    (exit code, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "modop", *argv],
        cwd=cwd,
        env=_env(src),
        capture_output=True,
        text=True,
        timeout=LAUNCH_TIMEOUT_S,
    )
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return elapsed_ms, (proc.returncode, proc.stdout, proc.stderr)


def import_seconds(src: str, cwd: str, module: str) -> float:
    """Seconds a fresh interpreter takes to import ``module``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=_env(src),
        capture_output=True,
        text=True,
        timeout=LAUNCH_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing {module} failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def parse_importtime(text: str) -> dict[str, tuple[int, int]]:
    """``{module: (self_us, cumulative_us)}`` from ``-X importtime`` output.

    Lines read ``import time: <self> | <cumulative> | <indent><module>``;
    the header line and anything else is skipped.
    """
    out: dict[str, tuple[int, int]] = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:") :].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue
        out[parts[2].strip()] = (self_us, cum_us)
    return out


def import_times(src: str, cwd: str, module: str, launches: int) -> dict[str, tuple[float, float]]:
    """Median (self ms, cumulative ms) per module over sequential
    ``python -X importtime -c "import <module>"`` launches."""
    env = _env(src)
    samples: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for _ in range(launches):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=LAUNCH_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing {module} failed: {proc.stderr.strip()[-300:]}")
        for name, pair in parse_importtime(proc.stderr).items():
            samples[name].append(pair)
    return {
        name: (median(s for s, _ in pairs) / 1e3, median(c for _, c in pairs) / 1e3)
        for name, pairs in samples.items()
    }
