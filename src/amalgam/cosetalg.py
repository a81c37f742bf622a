"""Cosets K*c with K inside the amalgamated subgroup, and their algebra.

These are the values produced by shifting and intersecting copies of C inside
one free factor: every nonempty such set is a coset of a subgroup of the
factor, and after intersecting back with C it is a coset of a subgroup of C.
Emptiness is a first-class outcome (None), never a sentinel coset.  Coset
representatives and the words shift takes are letter tuples over a factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .stallings import SubgroupGraph, fold, meet
from .words import VerificationError, letters_inverse, letters_product

if TYPE_CHECKING:  # pragma: no cover
    from .group import AmalgamContext


@dataclass(frozen=True)
class CosetOfC:
    """Right coset subgroup * rep inside the factor named by side, rep in its letters."""

    side: str  # "A" | "B"
    subgroup: SubgroupGraph
    rep: tuple[int, ...]

    def key(self) -> tuple:
        return (self.side, self.subgroup.canonical_key(), self.rep)

    def contains(self, w: tuple[int, ...]) -> bool:
        return self.subgroup.contains(letters_product(w, letters_inverse(self.rep)))


def _canonical(side: str, subgroup: SubgroupGraph, rep: tuple[int, ...]) -> CosetOfC:
    return CosetOfC(side, subgroup, subgroup.coset_rep(rep)[0])


def c_coset(ctx: "AmalgamContext", side: str) -> CosetOfC:
    """The coset C * 1 on the given side."""
    return CosetOfC(side, ctx.graph_c(side), ())


def shift(ctx: "AmalgamContext", d: CosetOfC, p: tuple, q: tuple) -> Optional[CosetOfC]:
    """(p * d * q) meet C for d inside C, or None when empty; cached on the context.

    If s = ~p = alpha m beta has a middle, ~s C s meet C = 1, and ~s C q meet C is {c}, c =
    ~beta beta', if q = alpha' m beta' reads the same (P, m, Q) (`SubgroupGraph.middle`), else
    empty: {c} if s c ~q, checked to read a loop, is in d.  Else p(Kc)q = ~s K f, f = cq, is a
    coset of pK~p: a `meet` walk of K's graph, beside the paths of s and f, and C's gives its
    meet with C and a word of it; no graph is copied.
    """
    key = ("shift", d.key(), p, q)
    if key in ctx.cache:
        return ctx.cache[key]
    graph, s = ctx.graph_c(d.side), letters_inverse(p)
    if (mid := graph.middle(s)) is None:
        hit = meet(d.subgroup, graph, (s, ()), (letters_product(d.rep, q), ()))
        result = None if hit is None else _canonical(d.side, hit[0], hit[1])
    else:
        (at, i, to, j), mq, result = mid, graph.middle(q), None
        if mq and mq[::2] == (at, to) and q[mq[1] : len(q) - mq[3]] == s[i : len(s) - j]:
            c = letters_product(p[:j], q[len(q) - mq[3] :])  # ~beta beta'
            loop = letters_product(letters_product(s, c), letters_inverse(q))
            if not graph.contains(loop):
                raise VerificationError("shift by reads failed verification")
            result = CosetOfC(d.side, ctx._trivial[d.side], c) if d.contains(loop) else None
    ctx.cache[key] = result
    return result


def transfer(ctx: "AmalgamContext", d: CosetOfC) -> CosetOfC:
    """Move the coset to the other side through the amalgamation isomorphism (cached)."""
    key = ("transfer", d.key())
    cache = ctx.cache
    if key not in cache:
        alphabet = ctx.factor_alphabet(side2 := ctx.other(d.side))
        gens = [ctx.transfer_letters(d.side, loop) for _, loop in d.subgroup.basis_loops()]
        rep = ctx.transfer_letters(d.side, d.rep)
        cache[key] = _canonical(side2, fold(gens, alphabet), rep)
    return cache[key]
