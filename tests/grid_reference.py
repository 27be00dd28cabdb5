"""The projector route to the relation operators and the L-identity's outer
grid, kept as the reference for the Laurent products of
braidings.relation_operator; and the hand-expanded spectral idempotents and
minimal polynomial, kept as the reference for the root table
(braidings.eigenvalues) that projectors and kind_polynomial_ok read.

For a BMW braiding the relation operator of the kind its series fixes was
the middle spectral idempotent, and that of the other kind the sum of the
two idempotents beside it (Faddeev, Reshetikhin and Takhtajan 1990).  The
outer grid of the L-identity was R for a Hecke or involutive braiding, and
for BMW that sum scaled by the product D of its distinct non-monomial
denominators, so that every coefficient stays Laurent.
"""

from qfock.braidings import BMW, HECKE, INVOLUTIVE, LAMBDA, SYM, Braiding
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
    dens = {tuple(map(tuple, v.to_pairs()["den"])) for _, _, v in op.nonzeros()}
    for den in dens:
        if len(den) > 1:
            clear = clear * Scalar.make(dict(den), {0: 1})
    return op.scale(clear)


def outer_grid(b: Braiding) -> LinOperator:
    """R for a Hecke or involutive b; for BMW the cleared relation operator
    of the kind its series does not fix."""
    if b.kind != BMW:
        return b.R
    _, fixed = BMW_MIDDLE[b.series]
    return cleared(projector_relation_operator(b, LAMBDA if fixed == SYM else SYM))


def hand_projectors(b: Braiding) -> dict[str, LinOperator]:
    """The spectral idempotents written out kind by kind: q*P+ - q^{-1}*P-
    for Hecke and involutive braidings, plus the mu idempotent of the cubic
    polynomial for BMW ones."""
    ident = LinOperator.identity(b.N, 2)
    r = b.R
    q = b.q
    if b.kind in (HECKE, INVOLUTIVE):
        denom = (q + q.inverse()).inverse()
        plus = (r + ident.scale(q.inverse())).scale(denom)
        minus = (ident.scale(q) - r).scale(denom)
        return {"q": plus, "-1/q": minus}
    mu = b.mu
    qi = q.inverse()
    minus = ((r - ident.scale(q)) @ (r - ident.scale(mu))).scale(
        ((q + qi) * (qi + mu)).inverse())
    plus = ((r + ident.scale(qi)) @ (r - ident.scale(mu))).scale(
        ((q + qi) * (q - mu)).inverse())
    pmu = ((r - ident.scale(q)) @ (r + ident.scale(qi))).scale(
        ((mu - q) * (mu + qi)).inverse())
    return {"q": plus, "-1/q": minus, "mu": pmu}


def hand_kind_polynomial_ok(b: Braiding) -> bool:
    """(R - q)(R + 1/q) = 0, times (R - mu) for BMW."""
    ident = LinOperator.identity(b.N, 2)
    p = (b.R - ident.scale(b.q)) @ (b.R + ident.scale(b.q.inverse()))
    if b.kind != BMW:
        return p.is_zero()
    return (p @ (b.R - ident.scale(b.mu))).is_zero()
