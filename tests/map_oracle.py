"""Map-level oracle built from the public map algebra only: the orthogonal
projection onto a submodule."""

from modop.linmap import AdjointableMap


def orthogonal_projection(sub) -> AdjointableMap:
    """Orthogonal projection onto a submodule, as an adjointable map."""
    blocks = tuple(w @ w.conj().T for w in sub.column_bases)
    return AdjointableMap(sub.shape, sub.m, sub.m, blocks)
