"""Each public module-level function, class or assignment in src/kafw is named
(whole word) in src/kafw, demos/ or bench/ outside its own definition, or is
exported in kafw.__all__.  Methods are out of scope."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import kafw

ROOT = Path(__file__).resolve().parents[1]
# feistel.psi_round is the one-round reference the scalar chain is tested against.
EXEMPT = {"psi_round"}


def test_no_public_name_is_used_only_by_tests():
    texts = {f: f.read_text() for d in ("src/kafw", "demos", "bench") for f in (ROOT / d).glob("*.py")}
    unused = []
    for path in (ROOT / "src" / "kafw").glob("*.py"):
        for node in ast.parse(texts[path]).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [
                t.id for t in targets if isinstance(t, ast.Name)]
            names = [n for n in names if not n.startswith("_") and n not in kafw.__all__ and n not in EXEMPT]
            own = texts[path].replace(ast.get_source_segment(texts[path], node), "", 1) if names else ""
            rest = [own] + [text for f, text in texts.items() if f != path]
            unused += [f"{path.stem}.{n}" for n in names if not any(re.search(rf"\b{n}\b", t) for t in rest)]
    assert unused == []


def test_importing_kafw_loads_no_numpy():
    """numpy is imported on first use (field-cubic tables, encrypt_many's
    columns, the auditor and equivalence modules), never by `import kafw`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, kafw; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
