"""Words in finitely generated free groups.

A word is an immutable, freely reduced sequence of signed letters over a
fixed alphabet.  Generator ``i`` of the alphabet is encoded as the integer
``i + 1`` and its inverse as ``-(i + 1)``; textual rendering happens only at
the CLI boundary.  Words carry their alphabet, and mixing alphabets is a hard
error rather than a coercion.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import neg
from typing import Iterable, Iterator, Optional, Sequence

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# `name` or `name^k` (name, sign, digits), else a bad token; disjoint repeats keep it linear
_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?)(\d+))?(?!\S)|\S+")
MAX_LETTERS = 1 << 22  # longest word parse_word spells out, and the bench budget
_SHOWN = 40  # longest token, name or word a message quotes in full


class VerificationError(AssertionError):
    """A computed certificate failed its own check; this is a bug, not bad input."""


class Alphabet:
    """Ordered collection of distinct generator names with stable indices."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet needs at least one generator")
        seen: set[str] = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name {_quote(name)}")
            if name in seen:
                raise ValueError(f"duplicate generator name {_quote(name)}")
            seen.add(name)
        _set_names(self, names)
        _set_index(self, {n: i for i, n in enumerate(names)})

    @classmethod
    def _make(cls, names: tuple[str, ...]) -> "Alphabet":
        # trusted constructor: every name already passed the name check; a repeat still raises
        index = {n: i for i, n in enumerate(names)}
        if len(index) < len(names):
            return cls(names)
        a = object.__new__(cls)
        _set_names(a, names)
        _set_index(a, index)
        return a

    def __setattr__(self, *args):
        raise AttributeError("Alphabet is immutable")

    def __delattr__(self, *args):
        raise AttributeError("Alphabet is immutable")

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {_quote(name)}") from None

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        """Every name of a short alphabet; a long one shows its first names and its size."""
        shown = ", ".join(self.names[:_SHOWN])
        if len(shown) > _SHOWN:
            shown = f"{shown[:_SHOWN]}... ({len(self):,} name{'s' * (len(self) > 1)})"
        return f"Alphabet({shown})"


# the slots' own setters, which get past Alphabet.__setattr__
_set_names = Alphabet.names.__set__
_set_index = Alphabet._index.__set__


def _reduced(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    push = out.append
    pop = out.pop
    for lt in letters:
        if out and out[-1] == -lt:
            pop()
        else:
            push(lt)
    return tuple(out)


def letters_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced product of two freely reduced letter tuples."""
    if not a:
        return b
    if not b:
        return a
    k = 0
    na, nb = len(a), len(b)
    while k < na and k < nb and a[na - 1 - k] == -b[k]:
        k += 1
    return a[: na - k] + b[k:] if k else a + b


def letters_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(a)))


def letters_cyclic_reduce(ls: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(core, conjugator) with ls = conjugator * core * ~conjugator, core cyclically reduced."""
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    return ls[i:j], ls[:i]


class Word:
    """Freely reduced word; the constructor reduces its input."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        n = len(alphabet)
        letters = tuple(letters)
        for lt in letters:
            if not isinstance(lt, int) or lt == 0 or abs(lt) > n:
                # quoted short; repr refuses an int of 4,300 digits, so a long one is in hex
                s = f"{lt:#x}" if isinstance(lt, int) and abs(lt) >= 10**_SHOWN else repr(lt)
                s = s if len(s) <= _SHOWN else f"{s[:_SHOWN]}... ({len(s):,} characters)"
                raise ValueError(f"letter {s} out of range for {alphabet!r}")
        _set_alphabet(self, alphabet)
        _set_letters(self, _reduced(letters))

    @classmethod
    def _make(cls, alphabet: Alphabet, letters: tuple[int, ...]) -> "Word":
        # trusted constructor: letters must already be valid and freely reduced
        w = object.__new__(cls)
        _set_alphabet(w, alphabet)
        _set_letters(w, letters)
        return w

    def __setattr__(self, *args):
        raise AttributeError("Word is immutable")

    def __delattr__(self, *args):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def __repr__(self) -> str:
        return f"Word({_quote(format_word(self))})"

    def _require_same_alphabet(self, other: "Word") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError(
                f"alphabet mismatch: {self.alphabet!r} vs {other.alphabet!r}"
            )

    def __mul__(self, other: "Word") -> "Word":
        self._require_same_alphabet(other)
        if not self.letters:
            return other
        if not other.letters:
            return self
        return Word._make(self.alphabet, letters_product(self.letters, other.letters))

    def __invert__(self) -> "Word":
        return Word._make(self.alphabet, letters_inverse(self.letters))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return Word(self.alphabet, self.letters * n)


# the slots' own setters, which get past Word.__setattr__
_set_alphabet = Word.alphabet.__set__
_set_letters = Word.letters.__set__


def identity(alphabet: Alphabet) -> Word:
    return Word._make(alphabet, ())


def _rotation(ls: Sequence[int], target: Sequence[int]) -> Optional[int]:
    """Least i with ls[i:] + ls[:i] == target (equal lengths), or None.

    Knuth-Morris-Pratt (SIAM J. Comput. 6, 1977) on target 0 ls ls, 0 being
    no letter: at most 9 * len(ls) letter compares.
    """
    n = len(ls)
    text = (*target, 0, *ls, *ls[:-1])
    border = [0] * len(text)  # border[j]: longest proper border of text[: j + 1]
    k = 0
    for j in range(1, len(text)):
        while k and text[j] != text[k]:
            k = border[k - 1]
        if text[j] == text[k]:
            k += 1
            if k == n:
                return j - 2 * n
        border[j] = k
    return 0 if not n else None


def letters_conjugator(u: tuple[int, ...], v: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Find z with ~z * u * z == v for reduced letter tuples, or None.

    The cores of u and v are conjugate iff one is a rotation of the other;
    the first rotation i of u's core that equals v's core gives
    z = zu * core[:i] * ~zv.
    """
    cu, zu = letters_cyclic_reduce(u)
    cv, zv = letters_cyclic_reduce(v)
    i = _rotation(cu, cv) if len(cu) == len(cv) else None
    if i is None:
        return None
    z = letters_product(letters_product(zu, cu[:i]), letters_inverse(zv))
    if letters_product(letters_product(letters_inverse(z), u), z) != v:
        raise VerificationError("free conjugator failed verification")
    return z


def free_conjugacy(u: Word, v: Word) -> Optional[Word]:
    """Find z with ~z * u * z == v in the free group, or None (see `letters_conjugator`)."""
    u._require_same_alphabet(v)
    z = letters_conjugator(u.letters, v.letters)
    return None if z is None else Word._make(u.alphabet, z)


def letters_substitute(letters: tuple[int, ...], images: Sequence[tuple]) -> tuple[int, ...]:
    """Reduced image of letters under the homomorphism sending letter i to images[i - 1]."""
    inverse = [letters_inverse(img) for img in images]
    seqs = [images[lt - 1] if lt > 0 else inverse[-lt - 1] for lt in letters]
    return _reduced(chain.from_iterable(seqs))


def substitute(w: Word, images: Sequence[Word], target: Alphabet) -> Word:
    """Apply the homomorphism sending letter i to images[i]; inverses map to inverses."""
    if len(images) != len(w.alphabet):
        raise ValueError("substitution table must cover the whole alphabet")
    if any(img.alphabet != target for img in images):
        raise ValueError("substitution image over wrong alphabet")
    return Word._make(target, letters_substitute(w.letters, [img.letters for img in images]))


class WordSyntaxError(ValueError):
    """Malformed word text; carries the character offset of the bad token."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


def _quote(s: str) -> str:
    """repr of s, cut to its first _SHOWN characters and its length when longer."""
    return repr(s) if len(s) <= _SHOWN else f"{s[:_SHOWN]!r}... ({len(s):,} characters)"


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse whitespace-separated `name` / `name^k` tokens; empty text is the identity.

    One scan of the text; every letter comes from the alphabet's own index.
    A token that would take the word past MAX_LETTERS letters is rejected
    before its exponent is converted or spelled out.
    """
    index, budget = alphabet._index, MAX_LETTERS
    letters: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        name, sign, digits = m.groups()
        if name is None:
            raise WordSyntaxError(f"bad token {_quote(m[0])}", m.start() + 1)
        i = index.get(name)
        if i is None:
            raise WordSyntaxError(f"unknown generator {_quote(name)}", m.start() + 1)
        if digits is None:
            n = 1
        else:
            digits = digits.lstrip("0")
            if not digits:
                raise WordSyntaxError(f"zero exponent in {_quote(m[0])}", m.start() + 1)
            # int() refuses a long digit string, so one past the budget's length is not converted
            n = int(digits) if len(digits) <= len(str(budget)) else budget + 1
        if len(letters) + n > budget:
            past = f"takes the word past {budget} letters"
            raise WordSyntaxError(f"{_quote(m[0])} {past}", m.start() + 1)
        letters += [~i if sign else i + 1] * n
    return Word._make(alphabet, _reduced(letters))


def format_word(w: Word) -> str:
    """Inverse of parse_word up to normalization; the identity prints as ''."""
    parts: list[str] = []
    run_letter = 0
    run = 0
    for lt in list(w.letters) + [0]:
        if lt == run_letter:
            run += 1
            continue
        if run_letter:
            name = w.alphabet.names[abs(run_letter) - 1]
            exp = run if run_letter > 0 else -run
            parts.append(name if exp == 1 else f"{name}^{exp}")
        run_letter = lt
        run = 1
    return " ".join(parts)
