from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from modop.algebra import AlgebraShape
from modop.tolerances import DEFAULT_TOL

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def tol():
    return DEFAULT_TOL


@pytest.fixture
def shape23():
    return AlgebraShape((2, 3))


@pytest.fixture
def trivial():
    return AlgebraShape((1,))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class SvdCall(NamedTuple):
    a: np.ndarray  # a copy of the input
    compute_uv: bool
    full_matrices: bool


@pytest.fixture
def svd_calls(monkeypatch) -> list[SvdCall]:
    """Every ``np.linalg.svd`` call the test makes from here on, in order."""
    calls: list[SvdCall] = []
    svd = np.linalg.svd

    def spy(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append(SvdCall(np.array(a), compute_uv, full_matrices))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls
