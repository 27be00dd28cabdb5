"""The two rewriting engines that fockdouble._pass replaced, kept as
references for it: the pending-word loop that sorted a mixed word by the
permutation rule, and the recursion that let one dual mode of a current
double act on a creation word."""

from qfock.scalars import ONE, add_term


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
