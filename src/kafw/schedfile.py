"""Schedule spec files.

A small structured text format, one assignment per field:

    n = 8
    construction = kafw          # kafw | kaf | kafv | lucifer
    t = 4                        # optional; checked against the entries
    wf1 = fieldcubic { m = 02 }
    gamma1 = affine { matrix = [01, 02, 04, 08, 10, 20, 40, 80], constant = 00 }
    gamma2 = xor [ zero, fieldcubic { m = 03 } ]

Sub-key slots by construction (identifiers are case-sensitive):

    kafw     wf0..wf3 (optional, default zero) and gamma1..gammaT
    kaf      gamma1..gammaT only
    kafv     star0 .. star{T+1}, all present
    lucifer  gamma1..gammaT

The round count T is inferred from the entries; a `t` field, when given,
must agree.  Matrix rows are hex words, row 0 first, each below 2^n;
constants and field multipliers are hex.  `#` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import BadMatrix, ParseError
from .gf2 import BinMatrix, DomainParams, REDUCTION_POLYNOMIALS
from .schedules import (
    CONSTRUCTIONS,
    AffineSubkey,
    FieldCubicSubkey,
    KafvSchedule,
    KeySchedule,
    LuciferSchedule,
    SubkeyMap,
    XorSubkey,
    ZeroMap,
)

# xor entries may nest this deep; the xor one level further is an error.
MAX_XOR_DEPTH = 64


class _Token(NamedTuple):
    kind: str  # "word", "punct", "end"
    text: str
    line: int
    col: int


# Blanks and comments match no group; any character no other branch takes is an error.
_TOKEN = re.compile(r"\s+|#.*|(?P<punct>[={}\[\],])|(?P<word>[A-Za-z0-9_]+)|(?P<other>.)")


def _tokenize(text: str) -> list[_Token]:
    lines = text.splitlines()
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        for m in _TOKEN.finditer(line):
            if m.lastgroup == "other":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
            if m.lastgroup:
                tokens.append(_Token(m.lastgroup, m.group(), lineno, m.start() + 1))
    tokens.append(_Token("end", "", len(lines) + 1, 1))
    return tokens


def _decimal(tok: _Token, digits: str, what: str) -> int:
    """int(digits), read from tok; a ParseError at tok if it is no decimal or too long for int()."""
    if not digits.isdigit():
        raise ParseError(f"bad integer {what} {digits!r}", tok.line, tok.col)
    try:
        return int(digits)
    except ValueError:  # past int()'s digit limit
        raise ParseError(f"{what} has too many digits", tok.line, tok.col) from None


Builder = Callable[[DomainParams], SubkeyMap]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expect(self, text: str | None = None) -> _Token:
        """The next token: any word, or exactly `text` when given."""
        tok = self.tokens[self.pos]
        if tok.kind != "word" if text is None else tok.text != text:
            raise ParseError(f"expected {text or 'word'!r}, found {tok.text or 'end of file'!r}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def keywords(self, *texts: str) -> None:
        for text in texts:
            self.expect(text)

    def comma_list(self, item: Callable[[], object]) -> list:
        """item(), then item() again after each comma that follows."""
        items = [item()]
        while self.peek().text == ",":
            self.pos += 1
            items.append(item())
        return items

    def hex_word(self, what: str) -> int:
        tok = self.expect()
        try:
            return int(tok.text, 16)
        except ValueError:
            raise ParseError(f"bad hex {what} {tok.text!r}", tok.line, tok.col) from None

    def int_word(self, what: str) -> int:
        tok = self.expect()
        return _decimal(tok, tok.text, what)

    def entry(self, depth: int = 0) -> Builder:
        """One sub-key map, as a builder: the width may come after the
        entries, so each range check waits for it there."""
        tok = self.expect()
        if tok.text == "zero":
            return lambda p: ZeroMap()
        if tok.text == "affine":
            self.keywords("{", "matrix", "=", "[")
            rows = self.comma_list(lambda: self.hex_word("matrix row"))
            self.keywords("]", ",", "constant", "=")
            const = self.hex_word("constant")
            self.keywords("}")

            def affine(p: DomainParams) -> SubkeyMap:
                if len(rows) != p.n or any(r >= p.N for r in rows):
                    raise BadMatrix(f"line {tok.line}: affine matrix needs {p.n} rows below 2^{p.n}")
                if const >= p.N:
                    raise BadMatrix(f"line {tok.line}: constant {const:#x} out of range")
                return AffineSubkey(BinMatrix(tuple(rows)), const)

            return affine
        if tok.text == "fieldcubic":
            self.keywords("{", "m", "=")
            line = self.peek().line
            mult = self.hex_word("multiplier")
            self.keywords("}")

            def fieldcubic(p: DomainParams) -> SubkeyMap:
                if mult >= p.N:
                    raise BadMatrix(f"line {line}: multiplier {mult:#x} out of range")
                return FieldCubicSubkey(mult)

            return fieldcubic
        if tok.text == "xor":
            if depth == MAX_XOR_DEPTH:
                raise ParseError(f"xor entries nest at most {MAX_XOR_DEPTH} deep", tok.line, tok.col)
            self.keywords("[")
            parts = self.comma_list(lambda: self.entry(depth + 1))
            self.keywords("]")
            return lambda p: XorSubkey(tuple(part(p) for part in parts))
        raise ParseError(f"unknown entry kind {tok.text!r}", tok.line, tok.col)


@dataclass(frozen=True)
class ParsedSchedule:
    construction: str
    schedule: KeySchedule | KafvSchedule | LuciferSchedule


_SLOT = re.compile(r"^(wf|gamma|star)(\d+)$")


def parse_schedule_text(text: str) -> ParsedSchedule:
    parser = _Parser(text)
    n = None
    t_field = None
    construction = "kafw"
    entries: dict[tuple[str, int], Builder] = {}
    while parser.peek().kind != "end":
        name_tok = parser.expect()
        parser.keywords("=")
        name = name_tok.text
        if name == "n":
            n = parser.int_word("n")
        elif name == "t":
            t_field = parser.int_word("t")
        elif name == "construction":
            ctok = parser.expect()
            if ctok.text not in CONSTRUCTIONS:
                raise ParseError(f"unknown construction {ctok.text!r}", ctok.line, ctok.col)
            construction = ctok.text
        else:
            m = _SLOT.match(name)
            if not m:
                raise ParseError(f"unknown field {name!r}", name_tok.line, name_tok.col)
            slot = (m.group(1), _decimal(name_tok, m.group(2), "slot index"))
            if slot in entries:
                raise ParseError(f"duplicate entry {name!r}", name_tok.line, name_tok.col)
            entries[slot] = parser.entry()
    if n is None:
        raise ParseError("missing field n", 1, 1)
    if n not in REDUCTION_POLYNOMIALS:
        raise ParseError(f"unsupported width n={n}", 1, 1)
    p = DomainParams.for_width(n)

    def contiguous(prefix: str, start: int) -> list[Builder]:
        indices = sorted(i for kind, i in entries if kind == prefix)
        if indices != list(range(start, start + len(indices))):
            raise ParseError(f"{prefix} entries must be contiguous from {prefix}{start}", 1, 1)
        return [entries[(prefix, i)] for i in indices]

    cls = CONSTRUCTIONS[construction]
    if cls is KeySchedule:
        if any(kind == "star" for kind, _ in entries):
            raise ParseError(f"star entries are not valid for {construction}", 1, 1)
        gammas = contiguous("gamma", 1)
        if not gammas:
            raise ParseError("no round-key entries", 1, 1)
        wf_entries = {i for kind, i in entries if kind == "wf"}
        if construction == "kaf" and wf_entries:
            raise ParseError("kaf takes no whitening entries", 1, 1)
        if not wf_entries.issubset({0, 1, 2, 3}):
            raise ParseError("whitening slots are wf0..wf3", 1, 1)
        whitening = tuple(entries[("wf", j)](p) if j in wf_entries else ZeroMap() for j in range(4))
        schedule = KeySchedule(p, whitening, tuple(gamma(p) for gamma in gammas))
    elif cls is KafvSchedule:
        stars = contiguous("star", 0)
        if len(stars) < 2:
            raise ParseError("kafv needs entries star0..star{t+1}", 1, 1)
        if any(kind != "star" for kind, _ in entries):
            raise ParseError("kafv takes only star entries", 1, 1)
        schedule = KafvSchedule(p, tuple(star(p) for star in stars))
    else:  # lucifer
        gammas = contiguous("gamma", 1)
        if any(kind != "gamma" for kind, _ in entries):
            raise ParseError("lucifer takes only gamma entries", 1, 1)
        schedule = LuciferSchedule(p, tuple(gamma(p) for gamma in gammas))
    if t_field is not None and t_field != schedule.t:
        raise ParseError(f"t = {t_field} but entries imply t = {schedule.t}", 1, 1)
    return ParsedSchedule(construction, schedule)
