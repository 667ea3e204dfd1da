"""Dense flat-coordinate oracles for maps and submodules, independent of
library internals.

Flat coordinates ravel every entry block row by row, blocks in order, so
block b of a rank-m module occupies m*n_b*n_b consecutive coordinates, a
map with compressed blocks C_b acts there as C_b (x) I_{n_b}, and a
submodule with column bases W_b is spanned by W_b (x) I_{n_b} in block
b's rows.  A plain matrix is a map over the one-block algebra (1)
(``from_matrix``), and a matrix's columns span a submodule of it
(``columns``).
"""

import numpy as np
from scipy.linalg import block_diag, orth

from modop.algebra import AlgebraShape
from modop.errors import StructureError
from modop.linmap import AdjointableMap
from modop.modules import Submodule, flat_dim

from element_oracle import AlgebraElement, ModuleVector, require_finite

LINE = AlgebraShape((1,))


def realization(f) -> np.ndarray:
    """Dense flat matrix of a map: block b's compressed matrix (x) I_{n_b}."""
    d_dom, d_cod = flat_dim(f.shape, f.m), flat_dim(f.shape, f.n)
    out = np.zeros((d_cod, d_dom), dtype=np.complex128)
    dom_off = cod_off = 0
    for nb, c in zip(f.shape.block_sizes, f.blocks):
        seg_d, seg_c = f.m * nb * nb, f.n * nb * nb
        out[cod_off : cod_off + seg_c, dom_off : dom_off + seg_d] = np.kron(c, np.eye(nb))
        dom_off += seg_d
        cod_off += seg_c
    return out


def from_matrix(mat) -> AdjointableMap:
    """A plain finite complex matrix as a map over the one-block algebra (1)."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or 0 in mat.shape:
        raise StructureError("need a nonempty 2-d matrix")
    require_finite([mat], "map")
    return AdjointableMap(LINE, mat.shape[1], mat.shape[0], (mat,))


def columns(a) -> Submodule:
    """The span of a matrix's columns, as a submodule over (1), on an
    orthonormal basis (scipy's ``orth``)."""
    a = np.asarray(a, dtype=np.complex128)
    return Submodule(LINE, a.shape[0], (orth(a) if a.shape[1] else a,))


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
