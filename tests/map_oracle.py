"""Map-level oracles built from the public map algebra only: the orthogonal
projection onto a submodule and the four Moore-Penrose residuals that
certify ``AdjointableMap.mp_pseudoinverse``."""

from modop.linmap import AdjointableMap


def orthogonal_projection(sub) -> AdjointableMap:
    """Orthogonal projection onto a submodule, as an adjointable map."""
    blocks = tuple(w @ w.conj().T for w in sub.column_bases)
    return AdjointableMap(sub.shape, sub.m, sub.m, blocks)


def penrose_residuals(f: AdjointableMap, x: AdjointableMap) -> dict[str, float]:
    """Relative residuals of the four Moore-Penrose equations."""
    fn = max(f.norm(), 1e-300)
    xn = max(x.norm(), 1e-300)
    fxf = f @ x @ f
    xfx = x @ f @ x
    fx = f @ x
    xf = x @ f
    return {
        "fxf": (fxf - f).norm() / fn,
        "xfx": (xfx - x).norm() / xn,
        "fx_selfadjoint": (fx - fx.adjoint()).norm() / max(fx.norm(), 1e-300),
        "xf_selfadjoint": (xf - xf.adjoint()).norm() / max(xf.norm(), 1e-300),
    }
