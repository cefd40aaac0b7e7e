"""Free-group words, reduction, commutator calculus, and the presentation DSL.

A letter is stored as a nonzero signed integer: ``+i`` is the i-th generator
(1-based), ``-i`` its inverse.  Words are kept freely reduced at all times.
The public constructor validates and reduces its input; products, inverses
and powers of reduced words are built in time linear in their output
(products cancel only at the junction, powers go through the cyclic core).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class RankMismatchError(ValueError):
    pass


class GeneratorRangeError(ValueError):
    pass


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _conjugator_length(letters: tuple[int, ...]) -> int:
    """Largest t with letters = u c u^-1, |u| = t; for a reduced word the
    middle part c is then cyclically reduced (and nonempty unless the word
    is)."""
    n = len(letters)
    t = 0
    while 2 * t + 1 < n and letters[t] == -letters[n - 1 - t]:
        t += 1
    return t


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in the free group of the given rank.

    ``letters`` holds signed generator indices.  Input letters are reduced
    on construction, so two FreeWords are equal iff they represent the same
    group element.
    """

    rank: int
    letters: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for x in self.letters:
            if x == 0 or abs(x) > self.rank:
                raise GeneratorRangeError(
                    f"letter {x} out of range for rank {self.rank}")
        object.__setattr__(self, "letters", _reduce(self.letters))

    @classmethod
    def _reduced(cls, rank: int, letters: tuple[int, ...]) -> "FreeWord":
        """Wrap letters already known to be in range and freely reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} != rank {other.rank}")
        u, v = self.letters, other.letters
        n = len(u)
        m = min(n, len(v))
        c = 0
        while c < m and u[n - 1 - c] == -v[c]:
            c += 1
        return FreeWord._reduced(self.rank, u[:n - c] + v[c:])

    def inverse(self) -> "FreeWord":
        return FreeWord._reduced(self.rank,
                                 tuple(-x for x in reversed(self.letters)))

    def __pow__(self, k: int) -> "FreeWord":
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0 or not self.letters:
            return FreeWord._reduced(self.rank, ())
        letters = self.letters
        n = len(letters)
        t = _conjugator_length(letters)
        # w = u c u^-1 with c cyclically reduced, so u c^k u^-1 is reduced
        return FreeWord._reduced(
            self.rank, letters[:t] + letters[t:n - t] * k + letters[n - t:])


def generator(rank: int, i: int) -> FreeWord:
    return FreeWord(rank, (i,))


def power(w: FreeWord, k: int) -> FreeWord:
    return w ** k


def cyclic_core(w: FreeWord) -> FreeWord:
    """The cyclically reduced c with w = u c u^-1 (w reduced)."""
    t = _conjugator_length(w.letters)
    return FreeWord._reduced(w.rank, w.letters[t:len(w.letters) - t])


def conjugate(g: FreeWord, w: FreeWord) -> FreeWord:
    """g w g^-1."""
    return g * w * g.inverse()


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


# --- presentation DSL -------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """A finite presentation <names | relators> of a group."""

    rank: int
    names: tuple[str, ...]
    relators: tuple[FreeWord, ...] = ()

    def __post_init__(self):
        if len(self.names) != self.rank:
            raise ValueError("need one name per generator")
        if len(set(self.names)) != self.rank:
            raise ValueError("generator names must be distinct")
        for r in self.relators:
            if r.rank != self.rank:
                raise RankMismatchError("relator rank differs from presentation")


class WordSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownGeneratorError(WordSyntaxError):
    pass


class _Tokenizer:
    PUNCT = set("^()[],*")

    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, column)
        self._scan()
        self.idx = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = t[i]
            if c.isspace():
                i += 1
                continue
            col = i + 1
            if c in self.PUNCT:
                self.tokens.append(("punct", c, col))
                i += 1
            elif c == "-" or c.isdigit():
                j = i + 1
                while j < n and t[j].isdigit():
                    j += 1
                if t[i:j] in ("-",):
                    raise WordSyntaxError("bare '-'", self.line, col)
                self.tokens.append(("int", t[i:j], col))
                i = j
            elif c.isalpha() or c == "_":
                j = i + 1
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("name", t[i:j], col))
                i = j
            else:
                raise WordSyntaxError(f"unexpected character {c!r}", self.line, col)

    def peek(self):
        if self.idx < len(self.tokens):
            return self.tokens[self.idx]
        return ("eof", "", len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok

    def expect(self, value: str):
        kind, v, col = self.next()
        if v != value:
            raise WordSyntaxError(f"expected {value!r}, got {v or 'end of input'!r}",
                                  self.line, col)


MAX_PARSED_LETTERS = 1_000_000
"""Longest word the parser builds.  A longer power is refused before it is
built; a longer product or commutator is refused once built, from factors
that were each within the limit."""


class _Parser:
    """Recursive descent for: word := term+; term := atom ('^' int)?;
    atom := name | '(' word ')' | '[' word ',' word ']'.

    '*' is an optional separator.  An uppercase single-letter name whose
    lowercase form is a generator denotes that generator's inverse.
    """

    def __init__(self, tz: _Tokenizer, names: Sequence[str]):
        self.tz = tz
        self.names = list(names)
        self.rank = len(self.names)

    def parse_word(self) -> FreeWord:
        w = FreeWord(self.rank)
        while True:
            kind, v, col = self.tz.peek()
            if kind == "punct" and v == "*":
                self.tz.next()
                continue
            if kind == "eof" or (kind == "punct" and v in ("]", ")", ",")):
                return w
            w = w * self.parse_term()
            self._check_length(len(w), col)

    def parse_term(self) -> FreeWord:
        atom = self.parse_atom()
        kind, v, _ = self.tz.peek()
        if kind == "punct" and v == "^":
            self.tz.next()
            kind, v, col = self.tz.next()
            if kind != "int":
                raise WordSyntaxError("expected integer exponent", self.tz.line, col)
            if not atom.letters:
                return atom  # the empty word to any power
            digits = len(v.lstrip("-").lstrip("0"))
            if digits >= 8:  # at least 10^7 letters; refused before int()
                raise WordSyntaxError(
                    f"exponent of {digits} digits exceeds the parser limit of "
                    f"{MAX_PARSED_LETTERS} letters", self.tz.line, col)
            k = int(v)
            # atom = u c u^-1, so atom^k = u c^k u^-1 has 2|u| + |k||c| letters
            t = _conjugator_length(atom.letters)
            self._check_length(
                2 * t + abs(k) * (len(atom) - 2 * t) if k else 0, col)
            return atom ** k
        return atom

    def _check_length(self, n: int, col: int) -> None:
        if n > MAX_PARSED_LETTERS:
            raise WordSyntaxError(
                f"word of {n} letters exceeds the parser limit of "
                f"{MAX_PARSED_LETTERS}", self.tz.line, col)

    def parse_atom(self) -> FreeWord:
        kind, v, col = self.tz.next()
        if kind == "name":
            return self._resolve(v, col)
        if kind == "punct" and v == "(":
            w = self.parse_word()
            self.tz.expect(")")
            return w
        if kind == "punct" and v == "[":
            u = self.parse_word()
            self.tz.expect(",")
            w = self.parse_word()
            self.tz.expect("]")
            c = commutator(u, w)
            self._check_length(len(c), col)
            return c
        raise WordSyntaxError(f"unexpected token {v or 'end of input'!r}",
                              self.tz.line, col)

    def _resolve(self, name: str, col: int) -> FreeWord:
        if name in self.names:
            return generator(self.rank, self.names.index(name) + 1)
        if len(name) == 1 and name.isupper() and name.lower() in self.names:
            return generator(self.rank, self.names.index(name.lower()) + 1).inverse()
        raise UnknownGeneratorError(f"unknown generator {name!r}", self.tz.line, col)


def parse_word(text: str, names: Sequence[str], line: int = 1) -> FreeWord:
    tz = _Tokenizer(text, line=line)
    parser = _Parser(tz, names)
    w = parser.parse_word()
    kind, v, col = tz.peek()
    if kind != "eof":
        raise WordSyntaxError(f"trailing input {v!r}", line, col)
    return w


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format.

    Lines: ``gens: a, b, c`` (exactly one), ``rel: <word-expr>`` (any number),
    ``#`` comments, blank lines ignored.
    """
    names: list[str] | None = None
    rel_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("gens:"):
            if names is not None:
                raise WordSyntaxError("duplicate gens: line", lineno, 1)
            names = [n.strip() for n in stripped[len("gens:"):].split(",") if n.strip()]
            if not names:
                raise WordSyntaxError("empty generator list", lineno, 1)
            if len(set(names)) != len(names):
                raise WordSyntaxError("generator names must be distinct", lineno, 1)
        elif stripped.startswith("rel:"):
            rel_lines.append((lineno, stripped[len("rel:"):].strip()))
        else:
            raise WordSyntaxError("expected 'gens:' or 'rel:'", lineno, 1)
    if names is None:
        raise WordSyntaxError("missing gens: line", 1, 1)
    relators = tuple(parse_word(expr, names, line=lineno)
                     for lineno, expr in rel_lines)
    return Presentation(len(names), tuple(names), relators)


def render(w: FreeWord, names: Sequence[str]) -> str:
    """Inverse of parse_word up to free reduction: 'a b A' style output."""
    parts = []
    for x in w.letters:
        name = names[abs(x) - 1]
        if x > 0:
            parts.append(name)
        elif len(name) == 1 and name.islower():
            parts.append(name.upper())
        else:
            parts.append(f"{name}^-1")
    return " ".join(parts)
