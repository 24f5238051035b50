"""Schedule spec file parsing."""

import random
from pathlib import Path

import pytest

from kafw.errors import BadMatrix, KafwError, ParseError, TooFewRounds
from kafw.gf2 import DomainParams
from kafw.schedfile import MAX_XOR_DEPTH, parse_schedule_text
from kafw.schedules import KafvSchedule, KeySchedule, LuciferSchedule, builtin

P8 = DomainParams.for_width(8)
DATA = Path(__file__).resolve().parent / "data"

IDENTITY_ROWS = ", ".join(f"{1 << i:02x}" for i in range(8))


def test_all_zero_four_round_file():
    text = """
    n = 8
    t = 4
    construction = kafw
    gamma1 = zero
    gamma2 = zero
    gamma3 = zero
    gamma4 = zero
    """
    parsed = parse_schedule_text(text)
    assert parsed.construction == "kafw"
    s = parsed.schedule
    assert isinstance(s, KeySchedule) and s.t == 4
    for k in range(256):
        assert all(s.round_key(i, k) == 0 for i in range(1, 5))
        assert all(s.whitening_key(j, k) == 0 for j in range(4))


MINIMAL4_LONGHAND = """
# 4-round instance with field-cubic outer round keys
n = 8
construction = kaf
gamma1 = fieldcubic { m = 02 }
gamma2 = zero
gamma3 = zero
gamma4 = fieldcubic { m = 03 }
"""


def test_minimal4_longhand_matches_builtin_on_all_keys():
    parsed = parse_schedule_text(MINIMAL4_LONGHAND)
    ref = builtin("minimal4", P8)
    s = parsed.schedule
    for k in range(256):
        for i in range(1, 5):
            assert s.round_key(i, k) == ref.round_key(i, k)
        for j in range(4):
            assert s.whitening_key(j, k) == 0


def test_affine_and_xor_entries():
    text = f"""
    n = 8
    gamma1 = affine {{ matrix = [{IDENTITY_ROWS}], constant = 1b }}
    gamma2 = xor [ fieldcubic {{ m = 02 }}, affine {{ matrix = [{IDENTITY_ROWS}], constant = 00 }} ]
    """
    s = parse_schedule_text(text).schedule
    mini = builtin("minimal4", P8)
    for k in range(0, 256, 5):
        assert s.round_key(1, k) == k ^ 0x1B
        assert s.round_key(2, k) == mini.round_key(1, k) ^ k


def test_kafv_and_lucifer_files():
    text = """
    n = 4
    construction = kafv
    star0 = zero
    star1 = fieldcubic { m = 2 }
    star2 = zero
    star3 = zero
    """
    parsed = parse_schedule_text(text)
    assert isinstance(parsed.schedule, KafvSchedule)
    assert parsed.schedule.t == 2
    text = """
    n = 4
    construction = lucifer
    gamma1 = zero
    gamma2 = fieldcubic { m = 3 }
    gamma3 = zero
    """
    parsed = parse_schedule_text(text)
    assert isinstance(parsed.schedule, LuciferSchedule)
    assert parsed.schedule.t == 3


def test_bad_matrix_row_count():
    rows7 = ", ".join(f"{1 << i:02x}" for i in range(7))
    text = f"""
    n = 8
    gamma1 = affine {{ matrix = [{rows7}], constant = 00 }}
    """
    with pytest.raises(BadMatrix):
        parse_schedule_text(text)


def test_bad_matrix_row_range_and_constant():
    text = """
    n = 4
    gamma1 = affine { matrix = [01, 02, 04, 1f], constant = 00 }
    """
    with pytest.raises(BadMatrix):
        parse_schedule_text(text)
    text = """
    n = 4
    gamma1 = affine { matrix = [01, 02, 04, 08], constant = ff }
    """
    with pytest.raises(BadMatrix):
        parse_schedule_text(text)
    text = """
    n = 4
    gamma1 = fieldcubic { m = 10 }
    """
    with pytest.raises(BadMatrix):
        parse_schedule_text(text)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_schedule_text("n = 8\ngamma1 = bogus { }\n")
    assert err.value.line == 2
    assert err.value.column == 10
    with pytest.raises(ParseError):
        parse_schedule_text("whatnot = 3\n")
    with pytest.raises(ParseError):
        parse_schedule_text("gamma1 = zero\n")  # missing n
    with pytest.raises(ParseError):
        parse_schedule_text("n = 8\nt = 5\ngamma1 = zero\n")  # t mismatch
    with pytest.raises(ParseError):
        parse_schedule_text("n = 8\ngamma1 = zero\ngamma1 = zero\n")  # duplicate
    with pytest.raises(ParseError):
        parse_schedule_text("n = 8\ngamma1 = zero\ngamma3 = zero\n")  # gap
    with pytest.raises(ParseError):
        parse_schedule_text("n = 8\nconstruction = kaf\nwf0 = zero\ngamma1 = zero\n")
    with pytest.raises(ParseError):
        parse_schedule_text("n = 8\nconstruction = kafv\nstar1 = zero\nstar2 = zero\n")
    with pytest.raises(ParseError):
        parse_schedule_text("n = 8\ngamma1 = zero @\n")


def test_whitening_defaults_to_zero():
    text = """
    n = 8
    wf1 = fieldcubic { m = 02 }
    gamma1 = zero
    gamma2 = zero
    gamma3 = zero
    gamma4 = zero
    """
    s = parse_schedule_text(text).schedule
    assert s.whitening_key(0, 9) == 0
    assert s.whitening_key(1, 9) != 0 or s.whitening_key(1, 0) == 0
    ref = builtin("tweakem4", P8)
    for k in range(0, 256, 3):
        assert s.whitening_key(1, k) == ref.whitening_key(1, k)


def nested_xor(depth):
    return "n = 8\ngamma1 = " + "xor [ " * depth + "zero" + " ]" * depth + "\n"


# One row per error the parser raises: its type, full message and, for a
# ParseError, its line and column.  The later rows pin the order in which
# checks fire where a text breaks two rules at once, and the last ones the
# limits past which a text used to crash the parser.
ERRORS = [
    ("unexpected character", "n = 8\ngamma1 = zero @\n", ParseError, "unexpected character '@'", 2, 15),
    ("tokenizer before parser", "whatnot = 3\n\n  $\n", ParseError, "unexpected character '$'", 3, 3),
    ("expected punctuation", "n 8\n", ParseError, "expected '=', found '8'", 1, 3),
    ("expected a word", "n = 8\ngamma1 = ,\n", ParseError, "expected 'word', found ','", 2, 10),
    ("end of file", "n = 8\ngamma1 =", ParseError, "expected 'word', found 'end of file'", 3, 1),
    ("expected a keyword", "n = 8\ngamma1 = affine { rows = [01] }\n", ParseError,
     "expected 'matrix', found 'rows'", 2, 19),
    ("bad matrix row", "n = 8\ngamma1 = affine { matrix = [01, zz], constant = 00 }\n", ParseError,
     "bad hex matrix row 'zz'", 2, 33),
    ("bad constant", "n = 8\ngamma1 = affine { matrix = [01], constant = x1 }\n", ParseError,
     "bad hex constant 'x1'", 2, 45),
    ("bad multiplier", "n = 8\ngamma1 = fieldcubic { m = g }\n", ParseError, "bad hex multiplier 'g'", 2, 27),
    ("bad n", "n = 8a\n", ParseError, "bad integer n '8a'", 1, 5),
    ("bad t", "n = 8\nt = four\n", ParseError, "bad integer t 'four'", 2, 5),
    ("unknown entry kind", "n = 8\ngamma1 = bogus { }\n", ParseError, "unknown entry kind 'bogus'", 2, 10),
    ("unknown construction", "construction = des\n", ParseError, "unknown construction 'des'", 1, 16),
    ("unknown field", "whatnot = 3\n", ParseError, "unknown field 'whatnot'", 1, 1),
    ("duplicate entry", "n = 8\ngamma1 = zero\n  gamma1 = zero\n", ParseError, "duplicate entry 'gamma1'", 3, 3),
    ("missing n", "gamma1 = zero\n", ParseError, "missing field n", 1, 1),
    ("unsupported width", "n = 33\ngamma1 = zero\n", ParseError, "unsupported width n=33", 1, 1),
    ("gamma gap", "n = 8\ngamma1 = zero\ngamma3 = zero\n", ParseError,
     "gamma entries must be contiguous from gamma1", 1, 1),
    ("star in kafw", "n = 8\nstar0 = zero\ngamma1 = zero\n", ParseError, "star entries are not valid for kafw", 1, 1),
    ("no round keys", "n = 8\nwf0 = zero\n", ParseError, "no round-key entries", 1, 1),
    ("kaf whitening", "n = 8\nconstruction = kaf\nwf0 = zero\ngamma1 = zero\n", ParseError,
     "kaf takes no whitening entries", 1, 1),
    ("whitening slot 4", "n = 8\nwf4 = zero\ngamma1 = zero\n", ParseError, "whitening slots are wf0..wf3", 1, 1),
    ("star gap", "n = 8\nconstruction = kafv\nstar1 = zero\nstar2 = zero\n", ParseError,
     "star entries must be contiguous from star0", 1, 1),
    ("one star", "n = 8\nconstruction = kafv\nstar0 = zero\n", ParseError, "kafv needs entries star0..star{t+1}", 1, 1),
    ("gamma in kafv", "n = 8\nconstruction = kafv\nstar0 = zero\nstar1 = zero\ngamma1 = zero\n", ParseError,
     "kafv takes only star entries", 1, 1),
    ("whitening in lucifer", "n = 8\nconstruction = lucifer\ngamma1 = zero\ngamma2 = zero\nwf0 = zero\n",
     ParseError, "lucifer takes only gamma entries", 1, 1),
    ("one-round lucifer", "n = 8\nconstruction = lucifer\ngamma1 = zero\n", TooFewRounds, "lucifer needs t >= 2",
     None, None),
    ("t mismatch", "n = 8\nt = 5\ngamma1 = zero\n", ParseError, "t = 5 but entries imply t = 1", 1, 1),
    ("matrix row count", "n = 8\n\ngamma1 = affine { matrix = [01, 02], constant = 00 }\n", BadMatrix,
     "line 3: affine matrix needs 8 rows below 2^8", None, None),
    ("matrix row range", "n = 4\ngamma1 = affine { matrix = [01, 02, 04, 1f], constant = 00 }\n", BadMatrix,
     "line 2: affine matrix needs 4 rows below 2^4", None, None),
    ("constant range", "n = 4\ngamma1 = affine { matrix = [01, 02, 04, 08], constant = ff }\n", BadMatrix,
     "line 2: constant 0xff out of range", None, None),
    ("multiplier range, on the multiplier's line", "n = 4\ngamma1 = fieldcubic {\n  m = 10 }\n", BadMatrix,
     "line 3: multiplier 0x10 out of range", None, None),
    ("matrix inside xor, on the affine's line", "n = 4\ngamma1 = xor [ zero,\n affine { matrix = [1],\n"
     " constant = 0 } ]\n", BadMatrix, "line 3: affine matrix needs 4 rows below 2^4", None, None),
    ("row count before constant", "n = 4\ngamma1 = affine { matrix = [1], constant = ff }\n", BadMatrix,
     "line 2: affine matrix needs 4 rows below 2^4", None, None),
    ("n after the entries", "gamma1 = fieldcubic { m = 10 }\nn = 4\n", BadMatrix,
     "line 1: multiplier 0x10 out of range", None, None),
    ("whitening built before gammas", "n = 4\ngamma1 = fieldcubic { m = 10 }\nwf1 = fieldcubic { m = 20 }\n",
     BadMatrix, "line 3: multiplier 0x20 out of range", None, None),
    ("gammas built in slot order", "n = 4\ngamma2 = fieldcubic { m = 20 }\ngamma1 = fieldcubic { m = 10 }\n",
     BadMatrix, "line 3: multiplier 0x10 out of range", None, None),
    ("xor parts built in order", "n = 4\ngamma1 = xor [ fieldcubic { m = 20 },\n fieldcubic { m = 10 } ]\n",
     BadMatrix, "line 2: multiplier 0x20 out of range", None, None),
    ("stars built in order", "n = 4\nconstruction = kafv\nstar1 = fieldcubic { m = 20 }\n"
     "star0 = fieldcubic { m = 10 }\n", BadMatrix, "line 4: multiplier 0x10 out of range", None, None),
    ("lucifer maps built", "n = 4\nconstruction = lucifer\ngamma1 = zero\ngamma2 = fieldcubic { m = 10 }\n",
     BadMatrix, "line 4: multiplier 0x10 out of range", None, None),
    ("build before the t check", "n = 4\nt = 9\ngamma1 = fieldcubic { m = 10 }\n", BadMatrix,
     "line 3: multiplier 0x10 out of range", None, None),
    ("layout before build", "n = 4\ngamma1 = fieldcubic { m = 10 }\ngamma3 = zero\n", ParseError,
     "gamma entries must be contiguous from gamma1", 1, 1),
    ("syntax before missing n", "gamma1 = zero\ngamma2 = zap\n", ParseError, "unknown entry kind 'zap'", 2, 10),
    ("missing n before layout checks", "construction = kafv\ngamma1 = zero\n", ParseError,
     "missing field n", 1, 1),
    # A RecursionError at about 1000 levels, and int()'s ValueError past 4300 digits.
    ("xor one level past the cap", nested_xor(MAX_XOR_DEPTH + 1), ParseError,
     f"xor entries nest at most {MAX_XOR_DEPTH} deep", 2, 10 + 6 * MAX_XOR_DEPTH),
    ("xor 1000 deep", nested_xor(1000), ParseError, f"xor entries nest at most {MAX_XOR_DEPTH} deep", 2,
     10 + 6 * MAX_XOR_DEPTH),
    ("n of 5000 digits", f"n = {'9' * 5000}\ngamma1 = zero\n", ParseError, "n has too many digits", 1, 5),
    ("t of 5000 digits", f"n = 8\nt = {'9' * 5000}\ngamma1 = zero\n", ParseError, "t has too many digits", 2, 5),
    ("slot index of 5000 digits", f"n = 8\ngamma{'1' * 5000} = zero\n", ParseError,
     "slot index has too many digits", 2, 1),
]


@pytest.mark.parametrize("text, error, message, line, column", [row[1:] for row in ERRORS],
                         ids=[row[0] for row in ERRORS])
def test_each_error_has_its_type_message_and_position(text, error, message, line, column):
    with pytest.raises(KafwError) as info:
        parse_schedule_text(text)
    err = info.value
    assert type(err) is error
    if error is ParseError:
        assert str(err) == f"{line}:{column}: {message}"
        assert (err.line, err.column) == (line, column)
    else:
        assert str(err) == message


def test_xor_nests_up_to_the_cap():
    s = parse_schedule_text(nested_xor(MAX_XOR_DEPTH)).schedule
    assert s.round_key(1, 0x5A) == 0


FUZZ_WORDS = (
    "n t construction kafw kaf kafv lucifer wf1 wf4 gamma1 gamma2 gamma3 star0 star1 star2 zero affine "
    "fieldcubic xor matrix constant m 0 2 4 8 01 02 1f ff 0x1 1_0 _ g"
).split() + list("={}[],#@\n\t") + ["\x1c", "\u200b", "\r\n", "\u00e9"]


def fuzz_texts(count, seed):
    """count/2 strings of random tokens, and count/2 valid files with one
    character inserted, replaced or deleted."""
    rng = random.Random(seed)
    valid = [MINIMAL4_LONGHAND] + [path.read_text() for path in sorted(DATA.glob("*.sched"))]
    for _ in range(count // 2):
        yield " ".join(rng.choice(FUZZ_WORDS) for _ in range(rng.randrange(1, 30)))
        text = rng.choice(valid)
        i = rng.randrange(len(text))
        yield text[:i] + rng.choice(FUZZ_WORDS + [""])[:1] + text[i + rng.randrange(2):]


def test_any_text_gives_a_schedule_or_a_typed_error():
    parsed = 0
    for text in [row[1] for row in ERRORS] + list(fuzz_texts(3000, seed=23)):
        try:
            parse_schedule_text(text)
        except KafwError:
            continue
        parsed += 1
    assert parsed > 300  # most single-character changes to a comment or a hex word still parse
