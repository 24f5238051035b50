"""The package surface: each module-level function, class or assignment in
src/kafw, private or public, is named (whole word) in src/kafw, demos/ or
bench/ outside its own definition, or is a public name exported in
kafw.__all__ (methods are out of scope); and which cold runs load numpy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kafw
from kafw.cli import main

ROOT = Path(__file__).resolve().parents[1]
# feistel.psi_round is the one-round reference the scalar chain is tested against.
EXEMPT = {"psi_round"}


def _used_only_by_tests(chosen):
    """The chosen module-level function, class and assignment names of
    src/kafw that src/kafw, demos/ and bench/ never name (whole word)
    outside their own definition."""
    texts = {f: f.read_text() for d in ("src/kafw", "demos", "bench") for f in (ROOT / d).glob("*.py")}
    unused = []
    for path in (ROOT / "src" / "kafw").glob("*.py"):
        for node in ast.parse(texts[path]).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [
                t.id for t in targets if isinstance(t, ast.Name)]
            names = [n for n in names if chosen(n)]
            own = texts[path].replace(ast.get_source_segment(texts[path], node), "", 1) if names else ""
            rest = [own] + [text for f, text in texts.items() if f != path]
            unused += [f"{path.stem}.{n}" for n in names if not any(re.search(rf"\b{n}\b", t) for t in rest)]
    return unused


def test_no_public_name_is_used_only_by_tests():
    assert _used_only_by_tests(
        lambda n: not n.startswith("_") and n not in kafw.__all__ and n not in EXEMPT) == []


def test_no_private_name_is_used_only_by_tests():
    # Dunders such as __all__ are read by Python itself.
    assert _used_only_by_tests(lambda n: n.startswith("_") and not n.startswith("__")) == []


# A cold interpreter imports kafw.cli, runs `main(argv)` if argv is given,
# then prints whether numpy was loaded.
COLD = """import sys
from kafw.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print('numpy' in sys.modules)
sys.exit(code)"""
N8 = ("--n", "8", "--seed", "7")
COLD_RUNS = [  # (test id, argv, numpy loaded)
    ("import kafw.cli", (), False),
    ("encrypt", ("encrypt", "--schedule", "minimal4", *N8, "--key", "2a", "--block", "1234"), False),
    ("schedule", ("schedule", "--schedule", "minimal4", "--n", "8", "--key", "ab"), False),
    ("bound", ("bound", "--theorem", "1", "--n", "16", "--qf", "300", "--qe", "100"), False),
    ("attack", ("attack", "--name", "thm3", "--schedule", "identity_bad(4)", *N8, "--world", "real",
                "--trials", "1"), False),
    ("advantage", ("advantage", "--attack", "comp-any", "--schedule", "identity_bad(8)", *N8, "--trials", "3"), False),
    ("audit", ("audit", "--check", "def1", "--schedule", "minimal4", "--n", "8"), True),
    ("equivalence", ("equivalence", "--pair", "lucifer", "--n", "4", "--rounds", "3", "--seeds", "1", "--seed", "5"),
     True),
    # Birthday trials in the ideal world: two guesses go through the
    # encrypt_block loop, 64 guesses in chunks of 16 through the column
    # path; both convert the ideal cipher's first draws with numpy.
    ("attack birthday loop", ("attack", "--name", "birthday", "--schedule", "minimal4", *N8, "--world", "ideal",
                              "--trials", "2"), True),
    ("attack birthday columns", ("attack", "--name", "birthday", "--schedule", "minimal4", *N8, "--world", "ideal",
                                 "--function-kind", "function", "--qe", "16", "--qg", "64", "--trials", "2"), True),
]


@pytest.mark.parametrize("argv, loads_numpy", [run[1:] for run in COLD_RUNS], ids=[run[0] for run in COLD_RUNS])
def test_importing_kafw_loads_no_numpy(argv, loads_numpy, capsys, monkeypatch):
    """numpy is imported on first use, never by `import kafw` or `import
    kafw.cli`: on an audit's first count, an equivalence sweep's first
    column, `encrypt_many`'s column path, a field-cubic table's first build
    and the first batch of random-function or ideal-cipher draws.  So
    encrypt, schedule, bound and the quartet and complementation attacks
    start without it; audits, sweeps and ideal-world birthday attacks load
    it, and print in a cold process the record they print in this one."""
    monkeypatch.delenv("KAFW_SEED", raising=False)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", COLD, *argv], env=env, capture_output=True, text=True, check=True)
    *records, loaded = out.stdout.splitlines()
    assert loaded == str(loads_numpy)
    if argv:
        assert main(list(argv)) == 0
    assert records == capsys.readouterr().out.splitlines()
