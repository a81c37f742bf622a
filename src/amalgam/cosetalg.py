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
from .words import letters_inverse, letters_product

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
    """(p * d * q) meet C, or None when empty.

    p(Kc)q is ~s K f for the start word s = ~p and the accept word f = cq,
    a coset of ~s K s = pK~p.  So one `meet` walk of K's graph, with the
    paths of s and f beside it, against C's graph gives pK~p meet C and a
    word of the intersection; no graph is copied.  Results are cached on the
    context.
    """
    key = ("shift", d.key(), p, q)
    cache = ctx.cache
    if key in cache:
        return cache[key]
    starts = (letters_inverse(p), ())
    accepts = (letters_product(d.rep, q), ())
    hit = meet(d.subgroup, ctx.graph_c(d.side), starts, accepts)
    result = None if hit is None else _canonical(d.side, hit[0], hit[1])
    cache[key] = result
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
