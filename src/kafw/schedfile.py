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
from typing import NamedTuple

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


class _Token(NamedTuple):
    kind: str  # "word", "punct", "end"
    text: str
    line: int
    col: int


_WORD = re.compile(r"[A-Za-z0-9_]+")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        i = 0
        while i < len(line):
            ch = line[i]
            if ch == "#":
                break
            if ch.isspace():
                i += 1
                continue
            if ch in "={}[],":
                tokens.append(_Token("punct", ch, lineno, i + 1))
                i += 1
                continue
            m = _WORD.match(line, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
            tokens.append(_Token("word", m.group(), lineno, i + 1))
            i = m.end()
    tokens.append(_Token("end", "", len(text.splitlines()) + 1, 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of file'!r}",
                             tok.line, tok.col)
        return tok

    def hex_word(self, what: str) -> tuple[int, _Token]:
        tok = self.expect("word")
        try:
            return int(tok.text, 16), tok
        except ValueError:
            raise ParseError(f"bad hex {what} {tok.text!r}", tok.line, tok.col) from None

    def int_word(self, what: str) -> int:
        tok = self.expect("word")
        if not tok.text.isdigit():
            raise ParseError(f"bad integer {what} {tok.text!r}", tok.line, tok.col)
        return int(tok.text)

    def entry(self):
        """AST node: ('zero',) | ('affine', rows, const, tok) | ('fieldcubic', m, tok)
        | ('xor', [nodes])."""
        tok = self.expect("word")
        if tok.text == "zero":
            return ("zero",)
        if tok.text == "affine":
            self.expect("punct", "{")
            self.expect("word", "matrix")
            self.expect("punct", "=")
            self.expect("punct", "[")
            rows = []
            while True:
                value, _ = self.hex_word("matrix row")
                rows.append(value)
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect("punct", "]")
            self.expect("punct", ",")
            self.expect("word", "constant")
            self.expect("punct", "=")
            const, _ = self.hex_word("constant")
            self.expect("punct", "}")
            return ("affine", rows, const, tok)
        if tok.text == "fieldcubic":
            self.expect("punct", "{")
            self.expect("word", "m")
            self.expect("punct", "=")
            mult, mtok = self.hex_word("multiplier")
            self.expect("punct", "}")
            return ("fieldcubic", mult, mtok)
        if tok.text == "xor":
            self.expect("punct", "[")
            parts = [self.entry()]
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.next()
                parts.append(self.entry())
            self.expect("punct", "]")
            return ("xor", parts)
        raise ParseError(f"unknown entry kind {tok.text!r}", tok.line, tok.col)


def _build_map(node, p: DomainParams) -> SubkeyMap:
    kind = node[0]
    if kind == "zero":
        return ZeroMap()
    if kind == "affine":
        _, rows, const, tok = node
        if len(rows) != p.n or any(r >= p.N for r in rows):
            raise BadMatrix(
                f"line {tok.line}: affine matrix needs {p.n} rows below 2^{p.n}"
            )
        if const >= p.N:
            raise BadMatrix(f"line {tok.line}: constant {const:#x} out of range")
        return AffineSubkey(BinMatrix(tuple(rows)), const)
    if kind == "fieldcubic":
        _, mult, tok = node
        if mult >= p.N:
            raise BadMatrix(f"line {tok.line}: multiplier {mult:#x} out of range")
        return FieldCubicSubkey(mult)
    if kind == "xor":
        return XorSubkey(tuple(_build_map(part, p) for part in node[1]))
    raise AssertionError(kind)


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
    entries: dict[tuple[str, int], object] = {}
    while parser.peek().kind != "end":
        name_tok = parser.expect("word")
        parser.expect("punct", "=")
        name = name_tok.text
        if name == "n":
            n = parser.int_word("n")
        elif name == "t":
            t_field = parser.int_word("t")
        elif name == "construction":
            ctok = parser.expect("word")
            if ctok.text not in CONSTRUCTIONS:
                raise ParseError(f"unknown construction {ctok.text!r}", ctok.line, ctok.col)
            construction = ctok.text
        else:
            m = _SLOT.match(name)
            if not m:
                raise ParseError(f"unknown field {name!r}", name_tok.line, name_tok.col)
            slot = (m.group(1), int(m.group(2)))
            if slot in entries:
                raise ParseError(f"duplicate entry {name!r}", name_tok.line, name_tok.col)
            entries[slot] = (parser.entry(), name_tok)
    if n is None:
        raise ParseError("missing field n", 1, 1)
    if n not in REDUCTION_POLYNOMIALS:
        raise ParseError(f"unsupported width n={n}", 1, 1)
    p = DomainParams.for_width(n)

    def contiguous(prefix: str, start: int) -> list:
        indices = sorted(i for kind, i in entries if kind == prefix)
        expect_upto = start + len(indices)
        if indices != list(range(start, expect_upto)):
            raise ParseError(f"{prefix} entries must be contiguous from {prefix}{start}", 1, 1)
        return [entries[(prefix, i)] for i in indices]

    def built(astnode_tok) -> SubkeyMap:
        node, _tok = astnode_tok
        return _build_map(node, p)

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
        whitening = tuple(
            built(entries[("wf", j)]) if ("wf", j) in entries else ZeroMap()
            for j in range(4)
        )
        schedule = KeySchedule(p, whitening, tuple(built(e) for e in gammas))
    elif cls is KafvSchedule:
        stars = contiguous("star", 0)
        if len(stars) < 2:
            raise ParseError("kafv needs entries star0..star{t+1}", 1, 1)
        if any(kind != "star" for kind, _ in entries):
            raise ParseError("kafv takes only star entries", 1, 1)
        schedule = KafvSchedule(p, tuple(built(e) for e in stars))
    else:  # lucifer
        gammas = contiguous("gamma", 1)
        if any(kind != "gamma" for kind, _ in entries):
            raise ParseError("lucifer takes only gamma entries", 1, 1)
        schedule = LuciferSchedule(p, tuple(built(e) for e in gammas))
    if t_field is not None and t_field != schedule.t:
        raise ParseError(f"t = {t_field} but entries imply t = {schedule.t}", 1, 1)
    return ParsedSchedule(construction, schedule)
