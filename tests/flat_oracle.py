"""Dense flat-coordinate oracles for submodules, independent of library internals.

Flat coordinates ravel every entry block row by row, blocks in order, so
block b of a rank-m module occupies m*n_b*n_b consecutive coordinates and
a submodule with column bases W_b is spanned by W_b (x) I_{n_b} in block
b's rows.
"""

import numpy as np
from scipy.linalg import block_diag

from modop.algebra import AlgebraElement
from modop.modules import ModuleVector


def flat_basis(sub) -> np.ndarray:
    """Orthonormal flat basis, columns in (block, column, position) order."""
    return block_diag(
        *(np.kron(w, np.eye(n)) for n, w in zip(sub.shape.block_sizes, sub.column_bases))
    ).astype(np.complex128)


def invariance_residual(shape, m, q) -> float:
    """Worst distance from span(q), q an orthonormal flat basis, of its
    columns moved by every matrix unit of the algebra under the right
    action (0 for a submodule)."""
    worst = 0.0
    for b, n in enumerate(shape.block_sizes):
        for r in range(n):
            for s in range(n):
                blocks = [np.zeros((k, k)) for k in shape.block_sizes]
                blocks[b][r, s] = 1.0
                unit = AlgebraElement(shape, tuple(blocks))
                for col in q.T:
                    x = ModuleVector.from_flat(shape, m, col).right_mul(unit).flatten()
                    worst = max(worst, float(np.linalg.norm(x - q @ (q.conj().T @ x))))
    return worst
