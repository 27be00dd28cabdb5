"""The rewriting engines that fockdouble._pass and its annihilate fold
replaced, kept as references for them: the pending-word loop that sorted a
mixed word by the permutation rule, the recursion that let one dual mode
of a current double act on a creation word, and the annihilation action of
the Fock double computed by normal ordering the mixed word and keeping the
terms with no annihilator left.  Also the diamond test over all six
mixed patterns of degree 3, the reference for the verdict of
fockdouble._rule_failures: its ideal groups, a relation of one side beside
a generator of the other, fail exactly when these groups do."""

import itertools

from qfock.scalars import ONE, Scalar, add_term


def pending_rewrite(word, exchange, constant, hi, lo):
    """Sort a word by the permutation rule: a `hi` token (l) directly before
    a `lo` token (k) becomes sum c (lo, i) (hi, j) over exchange[(l, k)],
    plus constant[(l, k)] times the word without the pair, the leftmost
    disorder first.  Returns the sorted words keyed (lo-word, hi-word)."""
    done = {}
    pending = {tuple(word): ONE}
    while pending:
        w, coeff = pending.popitem()
        for p in range(len(w) - 1):
            if w[p][0] == hi and w[p + 1][0] == lo:
                break
        else:
            add_term(done, (tuple(i for t, i in w if t == lo),
                            tuple(i for t, i in w if t == hi)), coeff)
            continue
        l, k = w[p][1], w[p + 1][1]
        head, tail = w[:p], w[p + 2:]
        for (i, j, c) in exchange[(l, k)]:
            add_term(pending, head + ((lo, i), (hi, j)) + tail, coeff * c)
        cst = constant[(l, k)]
        if not cst.is_zero():
            add_term(pending, head + tail, coeff * cst)
    return done


def recursive_annihilate(cd, gen, k, word):
    """The dual mode x^gen[k] on a creation-mode word of the current double
    cd: the pairing fires at k + m = 1, exchange moves keep both mode
    labels, and the counit kills whatever reaches the vacuum."""
    out = {}
    if word:
        (b0, m0) = word[0]
        if k + m0 == 1:
            c = cd.constant[(gen, b0)]
            if not c.is_zero():
                out[word[1:]] = c
        for (i, j, c) in cd.exchange[(gen, b0)]:
            for w2, c2 in recursive_annihilate(cd, j, k, word[1:]).items():
                add_term(out, ((i, m0),) + w2, c * c2)
    return out


def normal_order_act(d, a_elem, v):
    """The annihilation action a |> v of the Fock double d: each mixed word
    (a-word, b-word) normal-ordered in d, the terms that keep an annihilator
    killed by the counit."""
    if isinstance(a_elem, tuple):
        a_elem = {a_elem: ONE}
    if isinstance(v, tuple):
        v = {v: ONE}
    out = {}
    for aw, ca in a_elem.items():
        for bw, cb in v.items():
            word = tuple(("a", j) for j in aw) + tuple(("b", i) for i in bw)
            for (bw2, aw2), c in d.normal_order(word).items():
                if not aw2:
                    add_term(out, bw2, ca * cb * c)
    return out


def full_diamond_groups(N, hi, lo, algebras):
    """The diamond groups of a rule sorting `hi` after `lo` on every mixed
    degree-3 word, all six patterns: the word minus the product of the
    normal forms of its same-tag runs, keyed ("diamond", word)."""
    groups = {}
    for pattern in itertools.product((hi, lo), repeat=3):
        if hi not in pattern or lo not in pattern:
            continue
        for idx in itertools.product(range(N), repeat=3):
            word = tuple(zip(pattern, idx))
            combination = {(): Scalar.from_int(-1)}
            for tag, run in itertools.groupby(word, key=lambda t: t[0]):
                nf = algebras[tag].normal_form_word(tuple(i for _, i in run))
                combination = {w + tuple((tag, i) for i in rw): c * cr
                               for w, c in combination.items() for rw, cr in nf.items()}
            add_term(combination, word, ONE)
            groups[("diamond", word)] = combination
    return groups
