#!/usr/bin/env python3
"""Schedule spec files and the command-line front end.

Writes a schedule file, parses it back, and drives the same experiment
through the `kafw` CLI entry point (newline-delimited JSON records).
"""

import os
import tempfile
from pathlib import Path

from kafw.cli import main
from kafw.schedfile import parse_schedule_text

TEXT = """\
# 4-round instance: field-cubic outer round keys, nothing else
n = 8
construction = kaf
gamma1 = fieldcubic { m = 02 }
gamma2 = zero
gamma3 = zero
gamma4 = fieldcubic { m = 03 }
"""

print("== Parsing a schedule file ==")
parsed = parse_schedule_text(TEXT)
s = parsed.schedule
print(f"construction={parsed.construction} t={s.t} n={s.params.n}")
print("round keys at k=0x2a:", [f"{s.round_key(i, 0x2A):02x}" for i in range(1, 5)])

# Work inside a scratch directory so records name the file, not where it lives.
start = os.getcwd()
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    path = Path("minimal4.sched")
    path.write_text(TEXT)

    print("\n== kafw audit --check cor1 ==")
    main(["audit", "--check", "cor1", "--schedule", str(path)])

    print("\n== kafw attack --name thm3 (refused: schedule is non-linear) ==")
    code = main(["attack", "--name", "thm3", "--schedule", str(path),
                 "--world", "real", "--trials", "1"])
    print(f"exit code {code} (2 = precondition failed)")

    print("\n== kafw attack --name thm3 against an affine schedule ==")
    main(["attack", "--name", "thm3", "--schedule", "identity_bad(4)", "--n", "8",
          "--world", "real", "--trials", "3", "--seed", "9"])

    print("\n== kafw bound ==")
    main(["bound", "--theorem", "1", "--n", "8", "--qf", "4", "--qe", "4",
          "--delta1", "3/256", "--delta2", "2/256", "--delta3", "2/256"])
    os.chdir(start)
