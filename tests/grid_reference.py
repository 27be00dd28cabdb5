"""The projector route to the relation operators and the L-identity's outer
grid, kept as the reference for the Laurent products of
braidings.relation_operator.

For a BMW braiding the relation operator of the kind its series fixes was
the middle spectral idempotent, and that of the other kind the sum of the
two idempotents beside it (Faddeev, Reshetikhin and Takhtajan 1990).  The
outer grid of the L-identity was R for a Hecke or involutive braiding, and
for BMW that sum scaled by the product D of its distinct non-monomial
denominators, so that every coefficient stays Laurent.
"""

from qfock.braidings import BMW, LAMBDA, SYM, Braiding
from qfock.scalars import ONE, Scalar
from qfock.tensorops import LinOperator

# each BMW series' middle idempotent, and the algebra kind whose relations it spans
BMW_MIDDLE = {"orthogonal": ("-1/q", SYM), "symplectic": ("q", LAMBDA)}


def projector_relation_operator(b: Braiding, kind: str) -> LinOperator:
    """q I - R or q^{-1} I + R for a Hecke or involutive b; for BMW the
    middle idempotent (the kind the series fixes) or the sum of the other
    two (the other kind)."""
    if b.kind != BMW:
        ident = LinOperator.identity(b.N, 2)
        return ident.scale(b.q) - b.R if kind == SYM else ident.scale(b.q.inverse()) + b.R
    middle, fixed = BMW_MIDDLE[b.series]
    if kind == fixed:
        return b.spectral_projectors[middle]
    first, second = (p for key, p in b.spectral_projectors.items() if key != middle)
    return first + second


def cleared(op: LinOperator) -> LinOperator:
    """D * op, with D the product of the distinct non-monomial denominators
    among op's entries (D = 1 when op is Laurent)."""
    clear = ONE
    for den in {v.den for _, _, v in op.nonzeros() if len(v.den) > 1}:
        clear = clear * Scalar(den, ONE.den)
    return op.scale(clear)


def outer_grid(b: Braiding) -> LinOperator:
    """R for a Hecke or involutive b; for BMW the cleared relation operator
    of the kind its series does not fix."""
    if b.kind != BMW:
        return b.R
    _, fixed = BMW_MIDDLE[b.series]
    return cleared(projector_relation_operator(b, LAMBDA if fixed == SYM else SYM))
