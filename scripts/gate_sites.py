#!/usr/bin/env python3
"""Check that the test suite trips every ``raise IdentityViolation`` in ``src/``.

Runs the Tier-1 tests in process, with a plugin that records where each
``IdentityViolation`` is constructed, then lists every
``raise IdentityViolation`` statement of ``src/modop`` (found with
``ast``).  Prints the sites no test reaches and exits 1 if there is
one, or if the tests themselves fail; exits 0 otherwise.  CI runs the
Tier-1 tests only through this script, with ``PYTHONPATH=src``.

    python3 scripts/gate_sites.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from modop.errors import IdentityViolation  # noqa: E402


def raise_sites() -> list[tuple[Path, int, int]]:
    """(file, first line, last line) of every ``raise IdentityViolation``."""
    sites = []
    for path in sorted((SRC / "modop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == IdentityViolation.__name__:
                sites.append((path, node.lineno, node.end_lineno))
    return sorted(sites)


class TripRecorder:
    """Records (file, line) of the frame that constructs each IdentityViolation."""

    def __init__(self):
        self.trips: set[tuple[str, int]] = set()

    def pytest_sessionstart(self, session):
        original = IdentityViolation.__init__
        trips = self.trips

        def recording_init(exc, *args):
            frame = sys._getframe(1)
            trips.add((str(Path(frame.f_code.co_filename).resolve()), frame.f_lineno))
            original(exc, *args)

        IdentityViolation.__init__ = recording_init


def main() -> int:
    recorder = TripRecorder()
    status = pytest.main(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")],
        plugins=[recorder],
    )
    sites = raise_sites()
    untripped = [
        (path, first)
        for path, first, last in sites
        if not any(f == str(path) and first <= line <= last for f, line in recorder.trips)
    ]
    print(f"\n{len(sites) - len(untripped)} of {len(sites)} raise IdentityViolation sites tripped")
    for path, line in untripped:
        print(f"untripped: {path.relative_to(ROOT)}:{line}")
    if status != 0:
        print(f"the tests failed (pytest exit code {int(status)})")
    return 1 if untripped or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
