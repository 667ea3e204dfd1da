"""Export another commit of this repository for side-by-side runs.

``export(rev)`` writes a fresh ``git archive`` of ``rev`` into
``.bench_build/<commit>/`` and returns that directory.  The comparison
scripts (``byte_compare.py``, ``ladder_micro.py --parent``,
``bench_pairs.py``) all get "the other commit" this way.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def commit_of(rev: str) -> str:
    """The full commit id that ``rev`` names."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def export(rev: str) -> Path:
    """A fresh ``git archive`` of ``rev`` under ``.bench_build/``."""
    commit = commit_of(rev)
    dest = BUILD / commit
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest
