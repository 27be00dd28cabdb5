"""The projector route to the relation operators and the L-identity's outer
grid, kept as the reference for the Laurent products of
braidings.relation_operator; the normalized spectral idempotents and their
decomposition check, kept as the reference for the cleared Lagrange data
(braidings.projectors); the four cleared decomposition identities, kept as
the reference for braidings.projector_decomposition_ok, which reads the
minimal-polynomial verdict that they are equivalent to when the roots are
distinct; and the hand-expanded spectral idempotents and minimal
polynomial, kept as the reference for the root table
(braidings.eigenvalues) that projectors and kind_polynomial_ok read.

For a BMW braiding the relation operator of the kind its series fixes was
the middle spectral idempotent, and that of the other kind the sum of the
two idempotents beside it (Faddeev, Reshetikhin and Takhtajan 1990).  The
outer grid of the L-identity was R for a Hecke or involutive braiding, and
for BMW that sum scaled by the product D of its distinct non-monomial
denominators, so that every coefficient stays Laurent.
"""

from functools import reduce
from itertools import combinations
from operator import add, mul

from qfock.braidings import (
    BMW,
    HECKE,
    INVOLUTIVE,
    LAMBDA,
    SYM,
    Braiding,
    eigenvalues,
    root_product,
)
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
    projectors = normalized_projectors(b)
    if kind == fixed:
        return projectors[middle]
    first, second = (p for key, p in projectors.items() if key != middle)
    return first + second


def normalized_projectors(b: Braiding) -> dict[str, LinOperator]:
    """The spectral idempotents of R by root (Lagrange): P_lambda is the
    product of (R - mu I)/(lambda - mu) over the other roots mu.  Raises
    DivisionByZero when two roots coincide."""
    roots = eigenvalues(b)
    out = {}
    for name, root in roots.items():
        others = [mu for other, mu in roots.items() if other != name]
        denom = reduce(mul, (root - mu for mu in others))
        out[name] = root_product(b, others).scale(denom.inverse())
    return out


def normalized(lagrange: dict[str, tuple[LinOperator, Scalar]]) -> dict[str, LinOperator]:
    """The idempotents P = Q / d of cleared Lagrange data {root: (Q, d)}."""
    return {name: p.scale(d.inverse()) for name, (p, d) in lagrange.items()}


def normalized_decomposition_ok(b: Braiding, projs: dict[str, LinOperator]) -> bool:
    """Orthogonal idempotents projs that sum to I and to R when weighted by
    root."""
    roots = eigenvalues(b)
    ident = LinOperator.identity(b.N, 2)
    total = None
    for p in projs.values():
        if (p @ p) != p:
            return False
        total = p if total is None else total + p
    if total != ident:
        return False
    for k1, p1 in projs.items():
        for k2, p2 in projs.items():
            if k1 != k2 and not (p1 @ p2).is_zero():
                return False
    return reduce(add, (p.scale(roots[name]) for name, p in projs.items())) == b.R


def cleared_decomposition_ok(b: Braiding) -> bool:
    """The idempotents P = Q / d of b.lagrange are orthogonal, sum to I,
    and sum to R when weighted by root, each identity multiplied through by
    nonzero denominators so that no inverse is taken: Q Q = d Q, Q Q' = 0,
    sum e Q = D I and sum lambda e Q = D R, with D the product of the d and
    e that of the other ones.  A zero d fails, since it would weaken
    Q Q = d Q to Q Q = 0.  Q Q' = 0 is checked in one order of each pair:
    if idempotents P_1, ..., P_k sum to I and P_i P_j = 0 for i < j, then
    the sum over l < j of P_j P_l is P_j - P_j = 0, and multiplying it by
    P_i on the right gives P_j P_i = 0 for i = j - 1, j - 2, ... in turn."""
    pairs = b.lagrange
    if any(d.is_zero() for _, d in pairs.values()):
        return False
    if any(p @ p != p.scale(d) for p, d in pairs.values()):
        return False
    if any(not (p1 @ p2).is_zero() for (p1, _), (p2, _) in combinations(pairs.values(), 2)):
        return False
    roots = eigenvalues(b)
    weighted = {name: p.scale(reduce(mul, (d for other, (_, d) in pairs.items()
                                           if other != name)))
                for name, (p, _) in pairs.items()}
    D = reduce(mul, (d for _, d in pairs.values()))
    # D I built directly, where I.scale(D) would take N^2 products
    d_ident = LinOperator.from_terms(((c, c, D) for c in range(b.N ** 2)), b.N, 2)
    if reduce(add, weighted.values()) != d_ident:
        return False
    return reduce(add, (p.scale(roots[name]) for name, p in weighted.items())) == b.R.scale(D)


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
