"""R-symmetric and R-skew-symmetric algebras of V and V*, materialized
degree by degree.

A quotient of the free tensor algebra by a quadratic relation subspace is
built iteratively: the degree-k candidates are (degree k-1 basis word,
generator) pairs, and the only new relations to impose are the quadratic
ones placed on the last two slots, pushed through the degree k-1
projection.  Pivots are chosen on the lexicographically largest words, so
the surviving basis consists of the lexicographically earliest free words.

Degree caches grow monotonically; every computed component stores its
basis, and the reduction of every non-basis candidate word is stored once,
as that word's normal form, from which the projection of an arbitrary free
tensor is assembled recursively.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .braidings import (BMW, LAMBDA, MU_KIND, SYM, Braiding, dual_square, relation_operator,
                        superflip_limit)
from .errors import UnsupportedConstruction
from .scalars import ONE, Scalar, add_term
from .tensorops import LinOperator, row_reduce

Word = tuple[int, ...]
Tensor = dict[Word, Scalar]


class Component:
    def __init__(self, basis: list[Word], basis_index: dict[Word, int]):
        self.basis = basis
        self.basis_index = basis_index


class GradedQuotient:
    """A quadratic quotient of T(V) or T(V*) with per-degree bases."""

    def __init__(self, N: int, relations: list[Tensor], name: str = ""):
        self.N = N
        self.relations = relations
        self.name = name
        self._components: dict[int, Component] = {}
        self._nf_cache: dict[Word, Tensor] = {}

    # -- components -----------------------------------------------------

    def component(self, k: int) -> Component:
        if k < 0:
            raise ValueError("degree must be nonnegative")
        got = self._components.get(k)
        if got is not None:
            return got
        if k == 0:
            comp = Component([()], {(): 0})
        elif k == 1:
            basis = [(i,) for i in range(self.N)]
            comp = Component(basis, {w: i for i, w in enumerate(basis)})
        else:
            comp = self._build_component(k)
        self._components[k] = comp
        return comp

    def _build_component(self, k: int) -> Component:
        prev = self.component(k - 1)
        below = self.component(k - 2)
        # candidates in descending word order: the row reduction pivots on
        # the smallest column, i.e. on the lexicographically largest word
        words = sorted((w + (g,) for w in prev.basis for g in range(self.N)),
                       reverse=True)
        col_of = {w: i for i, w in enumerate(words)}
        rows = []
        for w2 in below.basis:
            for rel in self.relations:
                row: dict[int, Scalar] = {}
                for (i, j), c in rel.items():
                    for y, d in self.normal_form_word(w2 + (i,)).items():
                        add_term(row, col_of[y + (j,)], c * d)
                if row:
                    rows.append(row)
        red = row_reduce(rows, len(words))
        lead = {words[p] for p in red.pivots}
        basis = [w for w in reversed(words) if w not in lead]
        for prow, pcol in zip(red.rows, red.pivots):
            self._nf_cache[words[pcol]] = {
                words[col]: -coeff
                for col, coeff in sorted(prow.items(), reverse=True) if col != pcol}
        return Component(basis, {w: i for i, w in enumerate(basis)})

    # -- projection -------------------------------------------------------

    def normal_form_word(self, word: Word) -> Tensor:
        """Coordinates of a free word in the reduced basis of its degree."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        k = len(word)
        comp = self.component(k)
        if k < 2 or word in comp.basis_index:
            out = {word: ONE}
        else:
            prefix_nf = self.normal_form_word(word[:-1])
            g = word[-1]
            acc: Tensor = {}
            for y, c in prefix_nf.items():
                cand = y + (g,)
                if cand in comp.basis_index:
                    add_term(acc, cand, c)
                else:
                    for w2, d in self._nf_cache[cand].items():
                        add_term(acc, w2, c * d)
            out = acc
        self._nf_cache[word] = out
        return out

    def normal_form(self, tensor: Tensor | Word) -> Tensor:
        """Project a homogeneous free tensor onto the component basis."""
        if isinstance(tensor, tuple):
            tensor = {tensor: ONE}
        if not tensor:
            return {}
        degrees = {len(w) for w in tensor}
        if len(degrees) != 1:
            raise ValueError("tensor must be homogeneous")
        out: Tensor = {}
        for word, coeff in tensor.items():
            if coeff.is_zero():
                continue
            for w2, d in self.normal_form_word(word).items():
                add_term(out, w2, coeff * d)
        return out

    def dim(self, k: int) -> int:
        return len(self.component(k).basis)

    def poincare(self, kmax: int) -> list[int]:
        return [self.dim(k) for k in range(kmax + 1)]

    def __repr__(self) -> str:
        return f"GradedQuotient({self.name}, N={self.N})"


# ---------------------------------------------------------------------------
# construction from a braiding
# ---------------------------------------------------------------------------

def _on_square(op: LinOperator, space: str) -> LinOperator:
    """A polynomial in R, carried from V (x) V to the square of `space`."""
    if space == "V":
        return op
    if space == "V*":
        return dual_square(op)
    raise UnsupportedConstruction(f"unknown space {space!r}")


def _image_basis(op: LinOperator) -> list[Tensor]:
    """The canonical basis of the image of a two-leg operator: its columns
    row-reduced once, with words numbered in descending order, so pivots
    fall on the largest words."""
    N = op.dim
    top = N * N - 1
    cols: dict[int, dict[int, Scalar]] = {}
    for r, c, v in op.nonzeros():
        cols.setdefault(c, {})[top - r] = v
    return [{divmod(top - col, N): v for col, v in sorted(r.items(), reverse=True)}
            for r in row_reduce(cols.values(), N * N).rows]


def make_algebra(b: Braiding, kind: str, space: str) -> GradedQuotient:
    """The R-symmetric (sym) or R-skew-symmetric (lambda) algebra of V or
    V*: the quotient by the image of braidings.relation_operator(b, kind),
    transported to V* (x) V* for V*.  Built once per braiding and kept in
    b.algebras, so every suite of a run reads the same degree caches."""
    alg = b.algebras.get((kind, space))
    if alg is None:
        relations = _image_basis(_on_square(relation_operator(b, kind), space))
        alg = b.algebras[(kind, space)] = GradedQuotient(
            b.N, relations, f"{kind}({space}) over {b.name or b.kind}")
    return alg


# ---------------------------------------------------------------------------
# degree-2 placement of the BMW mu eigenspace
# ---------------------------------------------------------------------------

def mu_eigenspace_degree2_report(b: Braiding) -> list[tuple]:
    """Where the mu eigenspace of a BMW braiding lands in degree 2: the
    failures ("mu-rank", r) when its rank r is not one, then, for each
    basis vector v of it, ("dies-in-<kind>", v) in the kind that keeps it
    (braidings.MU_KIND: sym for the orthogonal series, lambda for the
    symplectic one) and ("survives-in-<kind>", v) in the other one; empty
    when the rank-one invariant line survives in the first quotient and
    dies in the second.  The eigenspace is read as the image of the
    Laurent numerator Q_mu of braidings.projectors, which is the image of
    P_mu.  Nothing beyond degree 2 is claimed.
    """
    if b.kind != BMW:
        raise UnsupportedConstruction("mu eigenspace exists only for BMW braidings")
    mu_vectors = _image_basis(b.lagrange["mu"][0])
    keeps = MU_KIND[b.series]
    kills = LAMBDA if keeps == SYM else SYM
    surv, die = make_algebra(b, keeps, "V"), make_algebra(b, kills, "V")
    rank = len(mu_vectors)
    failures: list[tuple] = [] if rank == 1 else [("mu-rank", rank)]
    for vec in mu_vectors:
        if not surv.normal_form(vec):
            failures.append((f"dies-in-{keeps}", tuple(vec.items())))
        if die.normal_form(vec):
            failures.append((f"survives-in-{kills}", tuple(vec.items())))
    return failures


def mu_eigenspace_records(b: Braiding):
    """Yield the mu-eigenspace-degree2 record of b if it is BMW."""
    if b.kind == BMW:
        yield ("mu-eigenspace-degree2",
               "invariant line survives in the expected degree-2 quotient",
               mu_eigenspace_degree2_report(b))


def super_sym_dims(m: int, n: int, kmax: int) -> list[int]:
    """Degrees 0..kmax of (1 + t)^n / (1 - t)^m, the Sym series of the super
    space (m|n); its Lambda series has m and n swapped."""
    dims = [comb(n, k) for k in range(kmax + 1)]
    for _ in range(m):
        dims = list(accumulate(dims))     # times 1 / (1 - t)
    return dims


def poincare_records(b: Braiding, kmax: int, table: dict | None = None):
    """Yield a record for each of Sym and Lambda of V and V*: its dims to
    degree kmax against the series of the superflip (m, n) that R is at
    q = 1, failing at each degree where they differ; none when R is no
    superflip there.  A `table` gains "<kind>(<space>)": {"dims",
    "expected"} for all four, expected None without (m, n)."""
    split = superflip_limit(b)
    if split is None and table is None:
        return
    for kind in (SYM, LAMBDA):
        expected = None if split is None else \
            super_sym_dims(*(split if kind == SYM else split[::-1]), kmax)
        for space in ("V", "V*"):
            dims = make_algebra(b, kind, space).poincare(kmax)
            if table is not None:
                table[f"{kind}({space})"] = {"dims": dims, "expected": expected}
            if expected is not None:
                yield (f"poincare-{kind}-{space}",
                       "dimensions match the series of the superflip that R is at q = 1",
                       [k for k, (got, want) in enumerate(zip(dims, expected)) if got != want],
                       f"dims={dims} expected={expected} of (m, n) = {split}")
