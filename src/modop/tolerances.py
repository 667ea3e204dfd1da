"""Single tolerance policy shared by every numerical decision.

Two knobs, the fields of :class:`ToleranceConfig`, are set per run
(``--tol-rank`` and ``--tol-angle`` on the command line):

``rank_tol`` (default 1e-10)
    Relative rank cutoff: singular values below
    ``rank_tol * smax * ambient_dim`` are treated as zero.
``angle_tol`` (default 1e-8)
    Largest principal angle (radians) at which two subspaces are
    declared equal, and the containment and defect gates built on it.

The other thresholds have one value in use and are module constants:

``COINCIDE_TOL`` = 1e-7
    Angle below which directions of two subspaces are counted as common
    when *intersecting* them.  Laxer than ``angle_tol`` on purpose:
    intersection detection separates structural zeros (~1e-13) from
    genuine angles (>1e-3 on filtered instances).
``RESIDUAL_TOL`` = 1e-9
    Relative residual accepted when certifying operator identities (a
    map block-diagonal on its core–nilpotent split, the Drazin inverse
    under the adjoint), times the split's condition number.
``COMM_TOL`` = 1e-10
    Relative commutator accepted as the commuting-pair precondition.
``POSITIVITY_TAU`` = 1e-6
    Threshold for "bounded below" verdicts on restricted projections and
    reduced minimum moduli.
``ILL_POSED_PROJECTOR_NORM`` = 1e6
    An oblique projector with norm beyond this is flagged ill-posed.

Every rank decision goes through one function,
``modop.subspace._decide``, parameterized by a :class:`ToleranceConfig`;
a module map feeds it the singular values of its one full SVD and makes
one decision per tolerance and scale, referenced to its norm when no
scale is given, which its kernel, image, cokernel and margin all read
(see :mod:`modop.linmap`): tolerance and scale move the cutoff but never
trigger a new decomposition.  Rank cutoffs scale with the largest
singular value and the ambient dimension, in line with standard
numerical-rank practice; angle and residual tolerances are absolute.
Every classification decision made under these knobs records the margin
by which it was made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DataError

COINCIDE_TOL = 1e-7
RESIDUAL_TOL = 1e-9
COMM_TOL = 1e-10
POSITIVITY_TAU = 1e-6
ILL_POSED_PROJECTOR_NORM = 1e6


@dataclass(frozen=True)
class ToleranceConfig:
    """The two per-run knobs (see the module docstring).

    Both must be finite and positive, with ``angle_tol`` at most
    ``COINCIDE_TOL``; anything else raises :class:`~modop.errors.DataError`.
    """

    rank_tol: float = 1e-10
    angle_tol: float = 1e-8

    def __post_init__(self):
        for fld in fields(self):
            val = getattr(self, fld.name)
            if not (math.isfinite(val) and val > 0):
                raise DataError(f"tolerance {fld.name} must be finite and positive, got {val!r}")
        if self.angle_tol > COINCIDE_TOL:
            raise DataError(
                f"tolerance angle_tol ({self.angle_tol!r}) must not exceed "
                f"coincide_tol ({COINCIDE_TOL!r})"
            )

    def rank_threshold(self, smax: float, ambient_dim: int) -> float:
        """Absolute cutoff below which singular values count as zero (0.0 for
        the zero map); ``smax`` may be an array of references."""
        return self.rank_tol * smax * max(ambient_dim, 1)


DEFAULT_TOL = ToleranceConfig()
