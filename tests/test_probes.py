"""Closed-form decay families and their diagnostic tables."""

import math
from dataclasses import replace

import numpy as np
import pytest

from modop import geometry, probes
from modop.errors import IdentityViolation, StructureError
from modop.linmap import AdjointableMap
from modop.probes import (
    FAMILY_NAMES,
    SQUARE_FAMILY_SCALE,
    family_table,
    multiplier_family,
    left_multiplier_family,
    nonclosed_square_family,
    shifted_diagonal,
)


def test_multiplier_gamma_is_exactly_smallest_sample():
    for n in (1, 2, 9, 31):
        f = multiplier_family(n)
        assert f.shape.num_blocks == n
        assert f.singular_data().gamma == 1.0 / (n + 1)  # exact: entries are the samples
        assert f.norm() == n / (n + 1)


def test_multiplier_family_decay_table():
    diag = family_table("multiplier", [2, 4, 8])
    assert diag.gamma_f == (1 / 3, 1 / 5, 1 / 9)
    assert diag.monotonicity["gamma_f_bounded_below"]
    # multiplication operators are injective here: kernel is zero
    assert all(math.isinf(d) for d in diag.delta)


def test_left_multiplier_checks_module_matrix_agreement(rng):
    s = shifted_diagonal(5)
    f = left_multiplier_family(s, 5)
    assert f.shape.block_sizes == (5,)
    expected = np.linalg.svd(s, compute_uv=False)[-1]
    assert abs(f.singular_data().gamma - expected) < 1e-12
    with pytest.raises(StructureError):
        left_multiplier_family(s, 4)


def test_shifted_diagonal_layout():
    s = shifted_diagonal(4)
    assert np.allclose(np.diag(s), [1, 1 / 2, 1 / 3, 1 / 4])
    assert np.allclose(np.diag(s, 1), [1, 1, 1])


def test_square_family_closed_forms():
    sizes = (2, 5, 16)
    diag = family_table("nonclosed-square", sizes)
    s = SQUARE_FAMILY_SCALE
    for i, n in enumerate(sizes):
        assert abs(diag.gamma_f[i] - s) < 1e-12
        assert abs(diag.gamma_f2[i] - s * s / math.sqrt(n * n + 1)) < 1e-12
        assert abs(diag.delta[i] - 1 / math.sqrt(n * n + 1)) < 1e-12
        assert abs(diag.c0[i] - n / math.sqrt(n * n + 1)) < 1e-12
        # the criterion margin moves in lockstep with the pair margin
        assert abs(diag.bouldin_margins[i] - diag.delta[i]) < 1e-12
        assert diag.closed_sum_agrees[i]


def test_square_family_closed_form_gate_trips_on_a_planted_map(monkeypatch):
    real = probes.nonclosed_square_family
    monkeypatch.setattr(probes, "nonclosed_square_family", lambda n: 2.0 * real(n))
    with pytest.raises(IdentityViolation, match="square family off closed form at n = 4"):
        family_table("nonclosed-square", [4])


def test_left_multiplier_gate_trips_on_a_planted_matrix_gamma(monkeypatch):
    # the matrix's own decision is the map over the one-block algebra (1)
    real = AdjointableMap.singular_data

    def planted(f, tol, scale=None):
        data = real(f, tol, scale=scale)
        return replace(data, gamma=2.0 * data.gamma) if f.shape.block_sizes == (1,) else data

    monkeypatch.setattr(AdjointableMap, "singular_data", planted)
    with pytest.raises(IdentityViolation, match=r"^module reduced minimum .* differs from matrix value"):
        family_table("left-multiplier", [4])


def test_family_table_diagnoses_each_map_once(monkeypatch):
    calls = {"bouldin_criterion": 0, "_closed_sum": 0, "dixmier_angle": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(probes, "bouldin_criterion")
    counting(geometry, "_closed_sum")
    counting(geometry, "dixmier_angle")  # the criterion's angles, not the probe's own
    family_table("nonclosed-square", [2, 3, 4])
    # one composition criterion per size, and one closed-sum geometry in each
    assert calls == {"bouldin_criterion": 3, "_closed_sum": 3, "dixmier_angle": 3}


def test_square_family_kernel_image_structure():
    n = 4
    f = nonclosed_square_family(n)
    # ker F = the tilted lines, Im F = the even lines; F^2 only vanishes
    # in the limit, so here its reduced minimum is positive but tiny
    img, ker = f.image(), f.kernel()
    assert img.dim == ker.dim == n * 2 * n  # n column-lines in M_(2n)
    assert (f @ f).norm() > 0
    meet, _ = img.intersection(ker)
    assert meet.dim == 0


def test_square_family_rate():
    # gamma(F^2) * n approaches the positive constant s^2 = 1/36
    diag = family_table("nonclosed-square", [8, 32])
    s2 = SQUARE_FAMILY_SCALE**2
    assert abs(diag.gamma_f2[0] * 8 - s2) < s2 / 50
    assert abs(diag.gamma_f2[1] * 32 - s2) < s2 / 500
    # while the un-squared margin never moves
    assert diag.gamma_f[0] == diag.gamma_f[1]


def test_family_table_monotonicity_verdicts():
    diag = family_table("nonclosed-square", [4, 8, 16])
    assert diag.monotonicity["gamma_f2_strictly_decreasing"]
    assert diag.monotonicity["delta_strictly_decreasing"]
    assert diag.monotonicity["gamma_f_bounded_below"]
    assert diag.sizes == (4, 8, 16)


def test_family_table_validation():
    with pytest.raises(StructureError):
        family_table("unknown", [4])
    with pytest.raises(StructureError):
        family_table("multiplier", [])
    assert set(FAMILY_NAMES) == {"multiplier", "left-multiplier", "nonclosed-square"}


def test_square_family_needs_two_pairs():
    with pytest.raises(StructureError):
        nonclosed_square_family(1)
