import random

import pytest

from amalgam.fixtures import example_one_context, example_two_context, malnormal_context
from amalgam.stallings import build
from amalgam.words import Alphabet, Word, parse_word, substitute


@pytest.fixture(scope="session")
def free3():
    return Alphabet(("a", "b", "d"))


@pytest.fixture(scope="session")
def subgroup_a2_b(free3):
    return build([parse_word("a^2", free3), parse_word("b", free3)])


@pytest.fixture(scope="session")
def ex1():
    return example_one_context(2)


@pytest.fixture(scope="session")
def ex2():
    return example_two_context(2)


@pytest.fixture(scope="session")
def malnormal_ctx():
    return malnormal_context()


def random_reduced(rng: random.Random, alphabet: Alphabet, length: int) -> Word:
    letters = []
    options = [s * i for i in range(1, len(alphabet) + 1) for s in (1, -1)]
    while len(letters) < length:
        lt = rng.choice(options)
        if letters and letters[-1] == -lt:
            continue
        letters.append(lt)
    return Word(alphabet, letters)


def random_member(rng: random.Random, generators, count: int) -> Word:
    """Random product of `count` generators or inverses."""
    w = Word(generators[0].alphabet, ())
    for _ in range(count):
        g = rng.choice(generators)
        w = w * (g if rng.random() < 0.5 else ~g)
    return w


def nielsen_pairs(rng: random.Random, alphabet_a: Alphabet, alphabet_b: Alphabet):
    """A valid pairing u_i <-> sigma(rename(u_i)) for random u_i, 1 to 3 of them.

    rename sends the j-th generator of A to the j-th of B, and sigma is a product
    of three random Nielsen moves of F(B); their composite is an injective
    homomorphism F(A) -> F(B), so the pairing extends to an isomorphism of C.
    """
    n = len(alphabet_b)
    images = [Word(alphabet_b, (i + 1,)) for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        other = images[j] if rng.random() < 0.5 else ~images[j]
        if kind == 0:
            images[i] = images[i] * other
        elif kind == 1:
            images[i] = other * images[i]
        else:
            images[i] = ~images[i]
    us = [random_reduced(rng, alphabet_a, rng.randint(2, 5)) for _ in range(rng.randint(1, 3))]
    return [(u, substitute(Word(alphabet_b, u.letters), images, alphabet_b)) for u in us]
