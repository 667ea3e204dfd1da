"""Single tolerance policy shared by every numerical decision.

Every rank decision goes through one function,
``modop.subspace._decide``, parameterized by a :class:`ToleranceConfig`;
a module map feeds it the singular values it computed once and cached
(see :mod:`modop.linmap`), so tolerance and scale move the cutoff but
never trigger a new decomposition.  Rank cutoffs scale with the largest
singular value and the ambient dimension, in line with standard
numerical-rank practice; angle and residual tolerances are absolute.
Every classification decision made under these knobs records the margin
by which it was made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DataError


@dataclass(frozen=True)
class ToleranceConfig:
    """Knobs for rank, angle, and residual decisions.

    rank_tol
        Relative rank cutoff: singular values below
        ``rank_tol * smax * ambient_dim`` are treated as zero.
    angle_tol
        Largest principal angle (radians) at which two subspaces are
        declared equal.
    coincide_tol
        Angle below which directions of two subspaces are counted as
        common when *intersecting* them.  Laxer than ``angle_tol`` on
        purpose: intersection detection separates structural zeros
        (~1e-13) from genuine angles (>1e-3 on filtered instances).
    residual_tol
        Relative residual accepted when certifying operator identities
        (generalized-inverse axioms, exactness, adjoint symmetry).
    comm_tol
        Relative residual accepted for commutativity preconditions.
    positivity_tau
        Threshold for "bounded below" verdicts on restricted
        projections and reduced minimum moduli.
    ill_posed_projector_norm
        An oblique projector with norm beyond this is flagged ill-posed.

    Every knob must be finite and positive, with ``angle_tol`` at most
    ``coincide_tol``; anything else raises :class:`~modop.errors.DataError`.
    """

    rank_tol: float = 1e-10
    angle_tol: float = 1e-8
    coincide_tol: float = 1e-7
    residual_tol: float = 1e-9
    comm_tol: float = 1e-10
    positivity_tau: float = 1e-6
    ill_posed_projector_norm: float = 1e6

    def __post_init__(self):
        for fld in fields(self):
            val = getattr(self, fld.name)
            if not (math.isfinite(val) and val > 0):
                raise DataError(f"tolerance {fld.name} must be finite and positive, got {val!r}")
        if self.angle_tol > self.coincide_tol:
            raise DataError(
                f"tolerance angle_tol ({self.angle_tol!r}) must not exceed "
                f"coincide_tol ({self.coincide_tol!r})"
            )

    def rank_threshold(self, smax: float, ambient_dim: int) -> float:
        """Absolute cutoff below which singular values count as zero."""
        if smax == 0.0:
            return 0.0
        return self.rank_tol * smax * max(ambient_dim, 1)


DEFAULT_TOL = ToleranceConfig()
