"""Core types for stable marriage instances.

An instance has n men and n women, identified by 1-based indices.  Every
person ranks the whole opposite side; preference lists are permutations of
1..n with the most preferred partner first.  Rank tables are precomputed so
"does m prefer w to w'?" is O(1).
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar


class ParseError(ValueError):
    """Malformed textual input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _ItemError(ValueError):
    """A bad item of a sequence input; ``index`` is its position, so a
    parser can name the line the item came from."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class Side(enum.Enum):
    MAN = "m"
    WOMAN = "w"


def _rank_row(prefs: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The rank row of one preference list, checked while it is filled:
    ``row[j-1]`` is the 1-based position of j.  A list of n entries, none
    below 1, that fills every slot 1..n of the row without an index error
    is a permutation of 1..n; any other list is a `ValueError`.  Nothing
    is allocated for a list of another length."""
    if len(prefs) == n:
        row = [0] * (n + 1)  # row[j]: position of j; slot 0 stays empty
        try:
            for pos, j in enumerate(prefs, start=1):
                row[j] = pos
        except (IndexError, TypeError):
            pass
        else:
            if min(prefs) >= 1 and row.count(0) == 1:
                return tuple(row[1:])
    raise ValueError(f"preference list must be a permutation of 1..{n}")


def _checked_ranks(
    prefs: Sequence[Sequence[int]], n: int, label: str
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The lists as tuples and their rank rows."""
    lists = tuple(tuple(p) for p in prefs)
    if len(lists) != n:
        raise ValueError(f"expected {n} {label} preference lists, got {len(lists)}")
    ranks = []
    for i, lst in enumerate(lists, start=1):
        try:
            ranks.append(_rank_row(lst, n))
        except ValueError as exc:
            raise ValueError(f"{label} {i}: {exc}") from None
    return lists, tuple(ranks)


@dataclass(frozen=True)
class Instance:
    """An n-by-n stable marriage instance with complete preference lists."""

    n: int
    men_prefs: tuple[tuple[int, ...], ...]
    women_prefs: tuple[tuple[int, ...], ...]
    _men_rank: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _women_rank: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("instance needs at least one person per side")
        men, men_rank = _checked_ranks(self.men_prefs, self.n, "man")
        women, women_rank = _checked_ranks(self.women_prefs, self.n, "woman")
        self._set(men, women, men_rank, women_rank)

    @classmethod
    def _from_checked(cls, n, men, women, men_rank, women_rank) -> "Instance":
        """The instance with these lists and rank tables, which are
        already checked and so are not checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        out._set(men, women, men_rank, women_rank)
        return out

    def _set(self, men, women, men_rank, women_rank) -> None:
        object.__setattr__(self, "men_prefs", men)
        object.__setattr__(self, "women_prefs", women)
        object.__setattr__(self, "_men_rank", men_rank)
        object.__setattr__(self, "_women_rank", women_rank)

    # -- rank / preference queries ------------------------------------

    def man_rank(self, m: int, w: int) -> int:
        """1-based position of woman w on man m's list."""
        return self._men_rank[m - 1][w - 1]

    def woman_rank(self, w: int, m: int) -> int:
        return self._women_rank[w - 1][m - 1]

    def transposed(self) -> "Instance":
        """The same market with the roles of men and women swapped.  The
        lists and rank tables are already checked, so they are swapped
        as they are."""
        return Instance._from_checked(
            self.n, self.women_prefs, self.men_prefs, self._women_rank, self._men_rank
        )


@dataclass(frozen=True, order=True)
class Matching:
    """A perfect matching, stored as the wife of each man (1-based)."""

    wives: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.wives)
        if sorted(self.wives) != list(range(1, n + 1)):
            raise ValueError("matching must pair every man with a distinct woman")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Matching":
        wives = [0] * n
        for i, (m, w) in enumerate(pairs):
            if not (1 <= m <= n and 1 <= w <= n):
                raise _ItemError(f"pair ({m},{w}) out of range 1..{n}", i)
            if wives[m - 1]:
                raise _ItemError(f"man {m} matched twice", i)
            wives[m - 1] = w
        return cls(tuple(wives))

    @property
    def n(self) -> int:
        return len(self.wives)

    def husbands(self) -> tuple[int, ...]:
        out = [0] * self.n
        for m, w in enumerate(self.wives, start=1):
            out[w - 1] = m
        return tuple(out)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((m, w) for m, w in enumerate(self.wives, start=1))


# -- textual formats ---------------------------------------------------


# the ASCII characters that str.split() splits at, besides space, tab and
# the line ends; every other such character is outside ASCII
_ASCII_ODD_SPACES = "\v\f\x1c\x1d\x1e\x1f"
_ODD_SPACE = re.compile(r"[^\S \t]")
_ODD_TOKEN = re.compile(r"[^ \t]*[^\S \t][^ \t]*")


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """The numbered lines that keep text once ``#`` comments are cut.  A
    line ends only at \\n, \\r\\n or \\r, not at a form feed and the like,
    and tokens are separated only by spaces and tabs: any other whitespace
    outside a comment is a `ParseError` on its line that quotes its token.
    C-level scans of the whole text find such whitespace anywhere, in
    comments too; only then is each line searched."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    odd = not text.isascii() or any(c in text for c in _ASCII_ODD_SPACES)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if odd and _ODD_SPACE.search(line):
            raise ParseError(f"bad token {_ODD_TOKEN.search(line).group()!r}", lineno)
        line = line.strip()
        if line:
            yield lineno, line


def _decimal(token: str, message: str, lineno: int | None = None) -> int:
    """The value of `token` if it is all ASCII digits 0-9, the one form of
    a number in every input format: `int` alone would also take a sign, an
    underscore, surrounding space or another script's digits.  Any other
    token is a `ParseError` with `message` on line `lineno`, and so is a
    numeral longer than the interpreter's limit on int-string conversion,
    with a message of its own."""
    if not (token.isascii() and token.isdecimal()):
        raise ParseError(message, lineno)
    try:
        return int(token)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError(f"a number of {len(token)} digits is too long", lineno) from None


def _header(text: str, form: str) -> tuple[int, list, Iterator[tuple[int, str]]]:
    """The line number and fields of the header, the first content line,
    and an iterator over the content lines after it.  `form`, such as
    ``"model dot|euclid|1d k n"``, names the header's words: the first is
    the tag, a word with ``|`` is a choice that comes back as its string,
    and any other word is a size that comes back as an int.  An input
    without content, a wrong tag, word count or choice, and a size that is
    not a `_decimal` of at least 1 (checked left to right) are
    `ParseError`s."""
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("empty input") from None
    words, parts = form.split(), header.split()
    if len(parts) != len(words) or parts[0] != words[0]:
        raise ParseError(f"expected header '{form}'", lineno)
    fields = []
    for word, part in zip(words[1:], parts[1:]):
        if "|" in word:
            if part not in word.split("|"):
                raise ParseError(f"expected header '{form}'", lineno)
            fields.append(part)
        else:
            bad = f"{word} must be a positive integer"
            size = _decimal(part, bad, lineno)
            if not size:
                raise ParseError(bad, lineno)
            fields.append(size)
    return lineno, fields, lines


_T = TypeVar("_T")


def _tagged_pairs(
    lines: Iterable[tuple[int, str]], form: str, build: Callable[[list[tuple[int, int]]], _T]
) -> _T:
    """`build` applied to the two `_decimal`s of each ``tag a b`` line, for
    `form` such as ``"pair m w"`` whose first word is the tag.  A line of
    another shape is a `ParseError` that quotes `form`.  A `ValueError`
    from `build` becomes a `ParseError` too, on the line of its item if it
    is an `_ItemError`."""
    tag = form.split()[0]
    bad = "indices must be integers"
    pairs, linenos = [], []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != tag:
            raise ParseError(f"expected '{form}'", lineno)
        pairs.append((_decimal(parts[1], bad, lineno), _decimal(parts[2], bad, lineno)))
        linenos.append(lineno)
    try:
        return build(pairs)
    except _ItemError as exc:
        raise ParseError(str(exc), linenos[exc.index]) from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _pair_lines(tag: str, pairs: Iterable[tuple[int, int]]) -> str:
    """The ``tag a b`` lines of `pairs`, as `_tagged_pairs` reads them."""
    return "".join(f"{tag} {a} {b}\n" for a, b in pairs)


def _indexed_rows(
    lines: Iterable[tuple[int, str]],
    tags: Sequence[str],
    n: int,
    row: Callable[[list[str]], _T],
) -> tuple[tuple[_T, ...], ...]:
    """For each tag in order, the tuple of its rows 1..n: row i is `row`
    of the tokens of the ``tag i: tokens`` line.  A line of another shape,
    an index that is not a `_decimal` in 1..n, a second line for one tag and
    index, and a `ValueError` from `row` are `ParseError`s on their line.
    Missing lines are a `ParseError` that names the first missing index of
    the first short tag and the count missing over all tags, so nothing
    sized by n is built before the lines arrive."""
    form = "|".join(tags)
    given: dict[str, dict[int, _T]] = {tag: {} for tag in tags}
    for lineno, line in lines:
        head, sep, rest = line.partition(":")
        fields = head.split()
        if not sep or len(fields) != 2 or fields[0] not in given:
            raise ParseError(f"expected '{form} i: ...'", lineno)
        idx = _decimal(fields[1], "index must be an integer", lineno)
        if not 1 <= idx <= n:
            raise ParseError(f"index {idx} out of range 1..{n}", lineno)
        rows = given[fields[0]]
        if idx in rows:
            raise ParseError(f"duplicate {fields[0]} {idx}", lineno)
        try:
            rows[idx] = row(rest.split())
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    count = n * len(tags) - sum(map(len, given.values()))
    if count:
        tag, rows = next((tag, rows) for tag, rows in given.items() if len(rows) < n)
        first = next(i for i in itertools.count(1) if i not in rows)
        more = f" and {count - 1} more" if count > 1 else ""
        raise ParseError(f"missing {tag} lines: {first}{more}")
    return tuple(tuple(rows[i] for i in range(1, n + 1)) for rows in given.values())


def _indexed_lines(blocks: Iterable[tuple[str, Iterable[Iterable[object]]]]) -> str:
    """The ``tag i: tokens`` lines of ``(tag, rows)`` pairs, as `_indexed_rows`
    reads them: row i, counted from 1, holds the tokens, written with `str`."""
    return "".join(
        f"{tag} {i}: {' '.join(map(str, row))}\n"
        for tag, rows in blocks
        for i, row in enumerate(rows, start=1)
    )


def parse_instance(text: str) -> Instance:
    """Parse an instance.

    Format: a header line ``n N``, then one line per person,
    ``m i: w1 w2 ... wN`` / ``w j: m1 m2 ... mN``.  ``#`` starts a comment;
    blank lines are ignored.  Nothing sized by N is built before a list
    of N entries arrives.
    """
    _, (n,), lines = _header(text, "n N")

    numeral: dict[str, int] = {}  # canonical numerals of 1..n, built on first use

    def row(tokens: list[str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if len(tokens) == n and not numeral:
            numeral.update((str(i), i) for i in range(1, n + 1))
        try:
            prefs = tuple(map(numeral.__getitem__, tokens))
        except KeyError:  # a non-canonical numeral, or a list of another length
            prefs = tuple(_decimal(tok, "indices must be integers") for tok in tokens)
        return prefs, _rank_row(prefs, n)

    men, women = _indexed_rows(lines, ("m", "w"), n, row)
    men_prefs, men_rank = zip(*men)
    women_prefs, women_rank = zip(*women)
    return Instance._from_checked(n, men_prefs, women_prefs, men_rank, women_rank)


def format_instance(inst: Instance) -> str:
    blocks = (("m", inst.men_prefs), ("w", inst.women_prefs))
    return f"n {inst.n}\n" + _indexed_lines(blocks)


def parse_matching(text: str, n: int | None = None) -> Matching:
    """Parse a matching given as ``pair m w`` lines."""
    return _tagged_pairs(
        _content_lines(text),
        "pair m w",
        lambda pairs: Matching.from_pairs(len(pairs) if n is None else n, pairs),
    )


def format_matching(matching: Matching) -> str:
    return _pair_lines("pair", matching.pairs())
