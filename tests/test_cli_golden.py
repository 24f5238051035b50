"""Replay recorded CLI runs: same exit code and byte-equal stdout.

Each line of golden_cli.ndjson holds an argv, the exit code and the stdout
that `kafw.cli.main` produced for it.  Paths in the argv (data/*.sched)
are relative to this directory.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from kafw.cli import main

HERE = Path(__file__).resolve().parent
CASES = [json.loads(line) for line in (HERE / "golden_cli.ndjson").read_text().splitlines()]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_replays_byte_identically(case, monkeypatch):
    monkeypatch.chdir(HERE)
    monkeypatch.delenv("KAFW_SEED", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert buf.getvalue() == case["stdout"]
