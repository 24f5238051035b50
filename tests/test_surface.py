"""The package surface: each module-level function, class or assignment in
src/kafw, and each non-dunder method of its classes, private or public, is
named (whole word) in src/kafw, demos/ or bench/ outside its own
definitions, or is a public module-level name exported in kafw.__all__;
and which cold runs load numpy."""

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


def _definitions(module: str, tree):
    """(qualified name, name, node) of each module-level function, class and
    assignment in a module's tree, and of each non-dunder method of its
    classes."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [
            t.id for t in targets if isinstance(t, ast.Name)]
        yield from ((f"{module}.{name}", name, node) for name in names)
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                yield f"{module}.{node.name}.{item.name}", item.name, item


def _used_only_by_tests(chosen, methods: bool):
    """The chosen module-level names of src/kafw (or, with `methods`, the
    chosen method names) that src/kafw, demos/ and bench/ never name (whole
    word) outside their definitions: a method counts as used only if named
    outside every definition of a method of its name, so overrides do not
    vouch for each other."""
    texts = {f: f.read_text() for d in ("src/kafw", "demos", "bench") for f in (ROOT / d).glob("*.py")}
    defs = [(path, *d) for path in (ROOT / "src" / "kafw").glob("*.py")
            for d in _definitions(path.stem, ast.parse(texts[path]))]
    unused = []
    for path, qualified, name, node in defs:
        if qualified.count(".") != 1 + methods or not chosen(name):
            continue
        own = [(path, node)] if not methods else [
            (where, other) for where, q, n, other in defs if n == name and q.count(".") == 2]
        rest = dict(texts)
        for where, other in own:
            rest[where] = rest[where].replace(ast.get_source_segment(texts[where], other), "", 1)
        if not any(re.search(rf"\b{name}\b", text) for text in rest.values()):
            unused.append(qualified)
    return unused


def _public(n):
    return not n.startswith("_")


def _private(n):
    # Dunders such as __all__ are read by Python itself.
    return n.startswith("_") and not n.startswith("__")


def test_no_public_name_is_used_only_by_tests():
    assert _used_only_by_tests(lambda n: _public(n) and n not in kafw.__all__ and n not in EXEMPT, False) == []


def test_no_private_name_is_used_only_by_tests():
    assert _used_only_by_tests(_private, False) == []


@pytest.mark.parametrize("chosen", [_public, _private], ids=["public", "private"])
def test_no_method_is_used_only_by_tests(chosen):
    assert _used_only_by_tests(chosen, True) == []


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
