"""Seeded inputs: random valid amalgams, the fixture presentations, random words.

A presentation here is plain data (generator names and letter tuples), so the
benchmark can hand it to `build_context` inside the timed set-up or write it
out as a CLI file.  Random presentations are made without building a context;
the fixtures are read off the contexts of the package's `fixtures` module.

Random amalgams follow the Nielsen construction: take random u_i in F(A) and
set v_i = sigma(rename(u_i)), where rename sends the j-th generator of A to
the j-th generator of B and sigma is a random product of Nielsen moves of
F(B).  rename followed by sigma is an injective homomorphism F(A) -> F(B), so
the pairing u_i <-> v_i always extends to an isomorphism of C.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from amalgam import fixtures, stallings, words
from amalgam.words import Alphabet, Word

NAMES_A = ("a", "b", "c")
NAMES_B = ("x", "y", "z")
U_LENGTH = (2, 5)  # length range of the random u_i
NIELSEN_MOVES = 3  # moves in the random automorphism sigma of F(B)


@dataclass(frozen=True)
class Presentation:
    """Names of both factors and the pairs u_i = v_i as factor letter tuples."""

    name: str
    names_a: tuple[str, ...]
    names_b: tuple[str, ...]
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    states_a: int
    states_b: int
    rank_c: int

    def arguments(self) -> tuple[Alphabet, Alphabet, list[tuple[Word, Word]]]:
        """The arguments of `build_context` for this presentation."""
        alpha_a, alpha_b = Alphabet(self.names_a), Alphabet(self.names_b)
        return alpha_a, alpha_b, [(Word(alpha_a, u), Word(alpha_b, v)) for u, v in self.pairs]

    def text(self) -> str:
        """The presentation as a CLI group file."""
        _, _, pairs = self.arguments()
        lines = [f"A: {' '.join(self.names_a)}", f"B: {' '.join(self.names_b)}"]
        lines += [f"C: {words.format_word(u)} = {words.format_word(v)}" for u, v in pairs]
        return "\n".join(lines) + "\n"

    def union_pair_letters(self) -> list[tuple[int, ...]]:
        """Each relator u_i v_i^-1 as letters over the union alphabet."""
        off = len(self.names_a)
        return [
            u + tuple(-(lt + off) if lt > 0 else -(lt - off) for lt in reversed(v))
            for u, v in self.pairs
        ]

    def record(self) -> dict:
        return {
            "name": self.name,
            "rank_c": self.rank_c,
            "states_ca": self.states_a,
            "states_cb": self.states_b,
            "pairs": len(self.pairs),
        }


def _make(name: str, names_a, names_b, pairs) -> Presentation:
    alpha_a, alpha_b = Alphabet(names_a), Alphabet(names_b)
    ga = stallings.build([Word(alpha_a, u) for u, _ in pairs], alpha_a).graph
    gb = stallings.build([Word(alpha_b, v) for _, v in pairs], alpha_b).graph
    return Presentation(
        name, tuple(names_a), tuple(names_b), tuple(pairs), ga.nstates, gb.nstates, ga.rank
    )


def fixture(name: str) -> Presentation:
    """One of the package's canned presentations, as data."""
    makers = {
        "ex1-p2": lambda: fixtures.example_one_context(2),
        "ex1-p3": lambda: fixtures.example_one_context(3),
        "ex2-p2": lambda: fixtures.example_two_context(2),
        "malnormal": fixtures.malnormal_context,
    }
    ctx = makers[name]()
    pairs = tuple((u.letters, v.letters) for u, v in ctx.pairs)
    return _make(name, ctx.alphabet_a.names, ctx.alphabet_b.names, pairs)


def random_reduced(rng: random.Random, nletters: int, length: int) -> tuple[int, ...]:
    """A uniformly drawn freely reduced letter tuple of the given length."""
    out: list[int] = []
    while len(out) < length:
        lt = rng.choice((1, -1)) * rng.randint(1, nletters)
        if not out or out[-1] != -lt:
            out.append(lt)
    return tuple(out)


def _reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for lt in letters:
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-lt for lt in reversed(letters))


def _nielsen_images(rng: random.Random, n: int, moves: int) -> list[tuple[int, ...]]:
    """Images of the generators under a random product of Nielsen moves."""
    images = [(i + 1,) for i in range(n)]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        other = images[j] if rng.random() < 0.5 else _inverse(images[j])
        if kind == 0:
            images[i] = _reduce(images[i] + other)
        elif kind == 1:
            images[i] = _reduce(other + images[i])
        else:
            images[i] = _inverse(images[i])
    return images


def random_presentation(rng: random.Random, name: str, rank: int) -> Presentation:
    """A random valid amalgam F(a,b,c) *_C F(x,y,z) whose C has the given rank."""
    alpha_b = Alphabet(NAMES_B)
    while True:
        us = [random_reduced(rng, len(NAMES_A), rng.randint(*U_LENGTH)) for _ in range(rank)]
        images = [Word(alpha_b, img) for img in _nielsen_images(rng, len(NAMES_B), NIELSEN_MOVES)]
        vs = [words.substitute(Word(alpha_b, u), images, alpha_b).letters for u in us]
        pres = _make(name, NAMES_A, NAMES_B, list(zip(us, vs)))
        # keep only a proper C of exactly the requested rank
        if pres.rank_c == rank and pres.states_a > 1:
            return pres
