"""Deterministic truncation families with quantitative decay diagnostics.

Each family is the finite n-th shadow of an operator whose interesting
behaviour (vanishing reduced minimum, non-closed squared range) only
truly happens at n = infinity.  In finite dimension nothing is ever
degenerate, so what the families deliver instead is the *rate*: how the
reduced minimum modulus, the pair angle, and the closed-sum margin
decay as n grows.  All constructions are closed-form and free of
randomness, so every number in a diagnostic is reproducible bit for bit
from (family, n).

The square family is the heart of it.  In C^(2n), pair up basis vectors
and tilt the j-th pair by the angle with sine 1/sqrt(j^2+1); the map
sends the tilted frame's orthocomplement isometrically (scaled by 1/6)
onto the untilted lines and kills the tilted lines.  Its own reduced
minimum is exactly 1/6 at every size, but squaring runs the image into
the kernel at the worst pair angle:

    gamma(F)   = 1/6,
    gamma(F^2) = (1/36) / sqrt(n^2 + 1),

so gamma(F^2) * n tends to the positive constant 1/36 while the
closed-sum margin of (Im F, ker F) is exactly 1/sqrt(n^2+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import AlgebraShape
from .errors import IdentityViolation, StructureError
from .geometry import bouldin_criterion, dixmier_angle, min_modulus_restricted
from .linmap import AdjointableMap
from .tolerances import DEFAULT_TOL, POSITIVITY_TAU, ToleranceConfig

Array = np.ndarray

__all__ = [
    "FamilyDiagnostic",
    "SQUARE_FAMILY_SCALE",
    "multiplier_family",
    "left_multiplier_family",
    "shifted_diagonal",
    "nonclosed_square_family",
    "family_table",
    "FAMILY_NAMES",
]

# Fixed isometry scale of the square family.  Any 0 < s < 1 works; the
# value is pinned so the decay table is a stable documentation artifact.
SQUARE_FAMILY_SCALE = 1.0 / 6.0

FAMILY_NAMES = ("multiplier", "left-multiplier", "nonclosed-square")


@dataclass(frozen=True, eq=False)
class FamilyDiagnostic:
    """Measured decay metrics of one family across sizes.

    ``gamma_f`` / ``gamma_f2`` are reduced minimum moduli of the map and
    its square; ``c0`` and ``delta`` describe the angle between image
    and kernel; ``bouldin_margins`` come from the composition criterion
    applied to (F, F).  Monotonicity verdicts compare adjacent sizes.
    """

    family: str
    sizes: tuple[int, ...]
    gamma_f: tuple[float, ...]
    gamma_f2: tuple[float, ...]
    c0: tuple[float, ...]
    delta: tuple[float, ...]
    bouldin_margins: tuple[float, ...]
    closed_sum_agrees: tuple[bool, ...]
    monotonicity: dict[str, bool] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# families


def multiplier_family(n: int) -> AdjointableMap:
    """Multiplication by the identity function sampled at j/(n+1).

    The algebra is n one-dimensional blocks (a diagonal stand-in for
    essentially bounded functions); every sample point is a block, so
    the reduced minimum modulus is exactly the smallest sample 1/(n+1).
    """
    if n < 1:
        raise StructureError("need n >= 1")
    shape = AlgebraShape((1,) * n)
    blocks = tuple(
        np.array([[(j + 1) / (n + 1)]], dtype=complex) for j in range(n)
    )
    return AdjointableMap(shape, 1, 1, blocks)


def left_multiplier_family(
    s: Array, n: int, tol: ToleranceConfig = DEFAULT_TOL
) -> AdjointableMap:
    """Left multiplication by ``s`` on the full matrix block M_n.

    The compressed matrix of x -> s x on the one-generator module is s
    itself; the reduced minimum of the module map equals that of s, a map
    over the one-block algebra (1) (each singular value just picks up
    multiplicity n), which is checked before returning.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (n, n):
        raise StructureError(f"multiplier must be {n}x{n}, got {s.shape}")
    f = AdjointableMap(AlgebraShape((n,)), 1, 1, (s,))
    gamma_f = f.singular_data(tol).gamma
    gamma_s = AdjointableMap(AlgebraShape((1,)), n, n, (s,)).singular_data(tol).gamma
    agree = (
        gamma_f == gamma_s
        if math.isinf(gamma_f) or math.isinf(gamma_s)
        else abs(gamma_f - gamma_s) <= 1e-12 * max(gamma_s, 1.0)
    )
    if not agree:
        raise IdentityViolation(
            f"module reduced minimum {gamma_f!r} differs from matrix value {gamma_s!r}"
        )
    return f


def shifted_diagonal(n: int) -> Array:
    """Truncated shift plus the decaying diagonal diag(1, 1/2, ..., 1/n)."""
    return np.diag(np.ones(n - 1), 1).astype(complex) + np.diag(1.0 / np.arange(1, n + 1))


def nonclosed_square_family(n: int) -> AdjointableMap:
    """The tilted-pairs map whose square loses its margin.

    In block M_(2n): M is spanned by the even basis lines, N by the
    tilted lines e(2j) + (1/j) e(2j+1) (unit-normalised, j = 1..n), and
    F maps the orthocomplement of N isometrically onto M, scaled by
    SQUARE_FAMILY_SCALE, so ker F = N and Im F = M.  Everything about
    the pair (M, N) — the angle cosine n/sqrt(n^2+1), the margin
    1/sqrt(n^2+1), both squared-map minima — has a closed form, which
    ``family_table`` checks the diagnostic against.
    """
    if n < 2:
        raise StructureError("need n >= 2")
    dim = 2 * n
    shape = AlgebraShape((dim,))
    s = SQUARE_FAMILY_SCALE

    f_mat = np.zeros((dim, dim), dtype=complex)
    j_idx = np.arange(1, n + 1, dtype=float)
    cos_a = j_idx / np.sqrt(j_idx**2 + 1.0)
    sin_a = 1.0 / np.sqrt(j_idx**2 + 1.0)
    for j in range(n):
        # m_j = e(2j); g_j = -sin e(2j) + cos e(2j+1) spans the pair's
        # complement of the tilted line n_j = cos e(2j) + sin e(2j+1).
        f_mat[2 * j, 2 * j] = -s * sin_a[j]
        f_mat[2 * j, 2 * j + 1] = s * cos_a[j]
    return AdjointableMap(shape, 1, 1, (f_mat,))


# ---------------------------------------------------------------------------
# diagnostics


def _diagnose(
    family: str,
    sizes: Sequence[int],
    maps: Sequence[AdjointableMap],
    tol: ToleranceConfig,
) -> FamilyDiagnostic:
    gamma_f, gamma_f2, c0s, deltas, margins, agrees = [], [], [], [], [], []
    for f in maps:
        gamma_f.append(f.singular_data(tol).gamma)
        # c0 and delta of the unreduced pair: they differ from the reduced
        # pair's when Im F meets ker F (left-multiplier at n = 16)
        image = f.image(tol)
        kernel = f.kernel(tol)
        c0s.append(dixmier_angle(image, kernel, tol))
        deltas.append(min_modulus_restricted(image, kernel, tol))
        rep = bouldin_criterion(f, f, tol)
        gamma_f2.append(rep.gamma_composition)
        margins.append(rep.margin_p)
        gamma2_positive = math.isinf(gamma_f2[-1]) or gamma_f2[-1] > POSITIVITY_TAU
        agrees.append(rep.closed_sum.verdict == gamma2_positive)

    def decreasing(xs: Sequence[float]) -> bool:
        finite = [x for x in xs if math.isfinite(x)]
        return all(b < a for a, b in zip(finite, finite[1:]))

    mono = {
        "gamma_f2_strictly_decreasing": decreasing(gamma_f2),
        "delta_strictly_decreasing": decreasing(deltas),
        "gamma_f_bounded_below": all(g > POSITIVITY_TAU for g in gamma_f if math.isfinite(g)),
    }
    return FamilyDiagnostic(
        family=family,
        sizes=tuple(int(k) for k in sizes),
        gamma_f=tuple(float(x) for x in gamma_f),
        gamma_f2=tuple(float(x) for x in gamma_f2),
        c0=tuple(float(x) for x in c0s),
        delta=tuple(float(x) for x in deltas),
        bouldin_margins=tuple(float(x) for x in margins),
        closed_sum_agrees=tuple(bool(a) for a in agrees),
        monotonicity=mono,
    )


def family_table(
    family: str, sizes: Sequence[int], tol: ToleranceConfig = DEFAULT_TOL
) -> FamilyDiagnostic:
    """Decay table for one family across the given sizes."""
    if family not in FAMILY_NAMES:
        raise StructureError(f"unknown family {family!r}; choose from {FAMILY_NAMES}")
    if not sizes:
        raise StructureError("need at least one size")
    if family == "multiplier":
        maps = [multiplier_family(k) for k in sizes]
    elif family == "left-multiplier":
        maps = [left_multiplier_family(shifted_diagonal(k), k, tol) for k in sizes]
    else:
        maps = [nonclosed_square_family(k) for k in sizes]
    diag = _diagnose(family, sizes, maps, tol)
    if family == "nonclosed-square":
        s = SQUARE_FAMILY_SCALE
        for i, n in enumerate(diag.sizes):
            root = math.sqrt(n * n + 1.0)
            checks = (
                (diag.gamma_f[i], s),
                (diag.gamma_f2[i], s * s / root),
                (diag.delta[i], 1.0 / root),
                (diag.c0[i], n / root),
            )
            for got, want in checks:
                if abs(got - want) > 1e-10 * max(1.0, want):
                    raise IdentityViolation(
                        f"square family off closed form at n = {n}: got {got!r}, expected {want!r}"
                    )
    return diag
