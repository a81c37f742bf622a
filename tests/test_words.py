import random

import pytest
from hypothesis import given, strategies as st

from amalgam import words
from amalgam.words import (
    Alphabet,
    Word,
    WordSyntaxError,
    format_word,
    free_conjugacy,
    identity,
    parse_word,
    substitute,
)

from bruteforce import free_conjugacy_by_least_rotation
from conftest import random_reduced

F = Alphabet(("a", "b", "d"))
T = Alphabet(("t1", "t2"))


def w(text):
    return parse_word(text, F)


letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=14)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("2bad",))
    assert Alphabet(("a", "b")) == Alphabet(("a", "b"))
    assert Alphabet(("a", "b")) != Alphabet(("b", "a"))


def test_free_reduce_examples():
    assert Word(F, (1, -1, 2)) == w("b")
    assert Word(F, ()) == w("")
    assert Word(F, (1, 2, -2, 1)) == w("a^2")


def test_letter_range_checked():
    with pytest.raises(ValueError):
        Word(F, (4,))
    with pytest.raises(ValueError):
        Word(F, (0,))


def test_concat_invert_examples():
    assert w("a b") * w("b^-1 d") == w("a d")
    assert ~w("a b^-1") == w("b a^-1")
    u = w("a^2 b")
    assert u * ~u == w("")
    assert ~~u == u


def test_alphabet_mismatch_is_an_error():
    other = Alphabet(("x", "y"))
    with pytest.raises(ValueError):
        w("a") * Word(other, (1,))


@given(raw_words)
def test_free_reduce_idempotent(ls):
    once = Word(F, ls)
    assert Word(F, once.letters) == once


@given(raw_words, raw_words, raw_words)
def test_concat_associative(x, y, z):
    u, v, t = Word(F, x), Word(F, y), Word(F, z)
    assert (u * v) * t == u * (v * t)


def test_cyclic_reduce_examples():
    assert w("a b a^-1").cyclic_reduce() == (w("b"), w("a"))
    assert w("b").cyclic_reduce() == (w("b"), w(""))
    assert w("a^2 b a^-2").cyclic_reduce() == (w("b"), w("a^2"))


@given(raw_words)
def test_cyclic_reduce_invariants(ls):
    word = Word(F, ls)
    core, conj = word.cyclic_reduce()
    assert conj * core * ~conj == word
    assert len(core) == 0 or core.letters[0] != -core.letters[-1]


def test_free_conjugacy_examples():
    z = free_conjugacy(w("a b"), w("b a"))
    assert z == w("a")
    assert free_conjugacy(w("a"), w("b")) is None
    u, v = w("a b a^-1"), w("d b d^-1")
    z = free_conjugacy(u, v)
    assert z is not None and ~z * u * z == v


def test_free_conjugacy_random_roundtrip():
    rng = random.Random(7)
    options = [s * i for i in range(1, 4) for s in (1, -1)]
    for _ in range(300):
        u = Word(F, [rng.choice(options) for _ in range(rng.randint(0, 10))])
        z = Word(F, [rng.choice(options) for _ in range(rng.randint(0, 10))])
        v = ~z * u * z
        z2 = free_conjugacy(u, v)
        assert z2 is not None
        assert ~z2 * u * z2 == v


def cyclic_core(rng, length):
    """A random cyclically reduced word of the given length over F."""
    while True:
        core = random_reduced(rng, F, length)
        if length < 2 or core.letters[0] != -core.letters[-1]:
            return core


def with_last_letter_changed(ls):
    """ls with a different last letter, still cyclically reduced."""
    keep_off = {ls[-1], -ls[0], -ls[-2] if len(ls) > 1 else 0}
    return ls[:-1] + (next(x for x in (1, 2, 3, -1, -2, -3) if x not in keep_off),)


def test_free_conjugacy_matches_the_rotation_scan_on_far_rotations():
    # empty cores, rotations near the far end, and equal-length non-conjugates
    rng = random.Random(12)
    cases = [(identity(F), identity(F)), (w("a b a^-1"), w("b")), (w("a b a^-1"), w("a"))]
    for n in (1, 2, 3, 7, 40, 301):
        core = cyclic_core(rng, n)
        ls = core.letters
        z = random_reduced(rng, F, rng.randint(0, 6))
        for i in {n // 2, n - 1, max(n - 2, 0)}:
            cases.append((~z * core * z, Word(F, ls[i:] + ls[:i])))
        cases.append((core, Word(F, with_last_letter_changed(ls))))
        cases.append((core, ~core))
    for u, v in cases:
        got = free_conjugacy(u, v)
        assert got == free_conjugacy_by_least_rotation(u, v)
        assert got is None or ~got * u * got == v
    assert sum(free_conjugacy(u, v) is None for u, v in cases) >= 6


class CountingLetter(int):
    compares = 0

    def __eq__(self, other):
        CountingLetter.compares += 1
        return int(self) == int(other)

    def __ne__(self, other):
        CountingLetter.compares += 1
        return int(self) != int(other)

    __hash__ = int.__hash__


def test_rotation_search_makes_linearly_many_compares():
    # deterministic: counts letter compares, so a search that restarts at each rotation fails
    rng = random.Random(5)
    per_letter = []
    for n in (2_000, 4_000, 8_000, 16_000, 32_000):
        ls = tuple(map(CountingLetter, cyclic_core(rng, n).letters))
        for target, want in (
            (ls[n // 2 :] + ls[: n // 2], n // 2),
            (ls[1:] + ls[:1], 1),
            (with_last_letter_changed(ls), None),
        ):
            target = tuple(map(CountingLetter, target))  # fresh letters: no identity shortcut
            CountingLetter.compares = 0
            assert words._rotation(ls, target) == want
            per_letter.append(CountingLetter.compares / n)
    assert max(per_letter) <= 9
    # a periodic core makes a scan that restarts at each rotation quadratic: (a^99 b)^300
    ls = tuple(map(CountingLetter, ((1,) * 99 + (2,)) * 300))
    for target, want in ((ls[-1:] + ls[:-1], 99), (with_last_letter_changed(ls), None)):
        target = tuple(map(CountingLetter, target))
        CountingLetter.compares = 0
        assert words._rotation(ls, target) == want
        assert CountingLetter.compares <= 9 * len(ls)


def test_substitute_examples():
    table = [w("a^2"), w("b")]
    assert substitute(Word(T, (1, 2)), table, F) == w("a^2 b")
    assert substitute(Word(T, (1, -1)), table, F) == w("")
    table2 = [w("a b"), w("b^-1 d")]
    assert substitute(Word(T, (1, 2)), table2, F) == w("a d")
    # two images cancelling across their junction by more than one letter
    table3 = [w("a b"), w("b^-1 a^-1 d")]
    assert substitute(Word(T, (1, 2)), table3, F) == w("d")
    assert substitute(Word(T, (-2, -1, 2)), table3, F) == w("d^-1 b^-1 a^-1 d")


@given(st.lists(st.integers(min_value=-2, max_value=2).filter(bool), max_size=10),
       st.lists(st.integers(min_value=-2, max_value=2).filter(bool), max_size=10))
def test_substitute_is_a_homomorphism(x, y):
    table = [w("a b"), w("d^-1 a")]
    u, v = Word(T, x), Word(T, y)
    assert substitute(u * v, table, F) == substitute(u, table, F) * substitute(v, table, F)
    assert substitute(~u, table, F) == ~substitute(u, table, F)


def test_substitute_respects_inverses():
    table = [w("a b"), w("b")]
    assert substitute(Word(T, (-1,)), table, F) == ~w("a b")


def test_substitute_rejects_an_image_over_the_wrong_alphabet():
    # every image is checked, also one that the word does not use
    for word in (Word(T, (1,)), Word(T, (2,)), Word(T, ())):
        with pytest.raises(ValueError, match="^substitution image over wrong alphabet$"):
            substitute(word, [w("a"), Word(T, (1,))], F)


def test_parse_format_roundtrip():
    for text in ("", "a", "a^2 b^-1 d", "b^-3", "a b a^-1"):
        word = parse_word(text, F)
        assert parse_word(format_word(word), F) == word
    assert format_word(w("a a b^-1")) == "a^2 b^-1"


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("q", F)
    with pytest.raises(WordSyntaxError):
        parse_word("a^0", F)
    with pytest.raises(WordSyntaxError):
        parse_word("a^^2", F)
    err = None
    try:
        parse_word("a  bad^", F)
    except WordSyntaxError as exc:
        err = exc
    assert err is not None and err.column == 4


def test_parse_rejects_a_token_past_the_letter_budget():
    # an exponent of 10^15 would take petabytes if it were spelled out first
    for text, column in (("a^1000000000000000", 1), ("a b^-1000000000000000", 3)):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text, F)
        assert err.value.column == column
        assert f"past {words.MAX_LETTERS} letters" in str(err.value)


def test_parse_rejects_an_exponent_too_long_to_convert():
    # int() refuses more than 4,300 digits; the digit count alone is past the budget
    for sign in ("", "-"):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(f"d a^{sign}{'9' * 5000}", F)
        assert err.value.column == 3
        assert f"past {words.MAX_LETTERS} letters" in str(err.value)


def test_parse_errors_quote_a_long_token_or_name_in_short():
    # a message shows the first 40 characters and the length; the column stays
    nines, name = "9" * 100_000, "q" * 100_000
    past = f"takes the word past {words.MAX_LETTERS} letters"
    for text, column, message in (
        (f"d a^{nines}", 3, f"{'a^' + '9' * 38!r}... (100,002 characters) {past}"),
        (f"d b^^{nines}", 3, f"bad token {'b^^' + '9' * 37!r}... (100,003 characters)"),
        (f"a {name}^2", 3, f"unknown generator {'q' * 40!r}... (100,000 characters)"),
        (f"b a^-{'0' * 100_000}", 3,
         f"zero exponent in {'a^-' + '0' * 37!r}... (100,003 characters)"),
        (f"d {'q' * 40}", 3, f"unknown generator {'q' * 40!r}"),
        (f"d {'q' * 41}", 3, f"unknown generator {'q' * 40!r}... (41 characters)"),
    ):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text, F)
        assert err.value.column == column
        assert str(err.value) == f"column {column}: {message}"


def test_parse_strips_leading_zeros_before_the_budget():
    assert parse_word(f"a^-{'0' * 6000}3 b", F) == parse_word("a^-3 b", F)
    assert len(parse_word(f"a^{'0' * 5000}{words.MAX_LETTERS}", F)) == words.MAX_LETTERS
    with pytest.raises(WordSyntaxError) as err:
        parse_word(f"b a^{'0' * 5000}", F)
    assert err.value.column == 3 and "zero exponent" in str(err.value)


def test_parse_counts_the_running_total_against_the_budget(monkeypatch):
    monkeypatch.setattr(words, "MAX_LETTERS", 10)
    assert len(parse_word("a^6 b^-4", F)) == 10
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a^6 b^-4 d", F)
    assert err.value.column == 10
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a^6 b^5", F)
    assert err.value.column == 5


def test_identity_helpers():
    assert identity(F).is_identity()
    assert w("a") ** 0 == identity(F)
    assert w("a b") ** -2 == ~(w("a b") * w("a b"))


def test_words_are_immutable():
    for word in (Word(F, (1, 2)), w("a b") * w("d"), ~w("a"), identity(F)):
        with pytest.raises(AttributeError):
            word.letters = (3,)
        with pytest.raises(AttributeError):
            word.alphabet = T
        size = len(word)
        with pytest.raises(AttributeError, match="Word is immutable"):
            del word.letters
        with pytest.raises(AttributeError, match="Word is immutable"):
            del word.alphabet
        assert word.alphabet == F and len(word) == size



def test_alphabets_are_immutable():
    key = {F: "kept"}
    for attr in ("names", "_index"):
        with pytest.raises(AttributeError, match="Alphabet is immutable"):
            setattr(F, attr, ("x",))
        with pytest.raises(AttributeError, match="Alphabet is immutable"):
            delattr(F, attr)
    assert F.names == ("a", "b", "d") and F.index("d") == 2 and "x" not in F
    assert key[Alphabet(("a", "b", "d"))] == "kept"
