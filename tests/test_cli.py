"""Command-line front end: records, exit codes, help surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kafw import cli, game
from kafw.cli import build_parser, main
from kafw.schedules import BUILTIN_NAMES, MAX_BUILTIN_ROUNDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, records


def test_encrypt_record_and_determinism(capsys):
    args = ("encrypt", "--schedule", "minimal4", "--n", "8", "--key", "2a",
            "--block", "1234", "--seed", "7")
    code, rec1 = run_cli(capsys, *args)
    assert code == 0
    rec = rec1[0]
    assert rec["command"] == "encrypt"
    assert rec["seed"] == 7
    assert len(rec["ciphertext"]) == 4
    code, rec2 = run_cli(capsys, *args)
    assert rec2[0]["ciphertext"] == rec["ciphertext"]


def test_schedule_show(capsys):
    code, recs = run_cli(capsys, "schedule", "--schedule", "identity_bad(4)",
                         "--n", "8", "--key", "ab")
    assert code == 0
    assert recs[0]["round_keys"] == ["ab"] * 4
    assert recs[0]["whitening"] == ["00"] * 4


def test_audit_def3_ortho6(capsys):
    code, recs = run_cli(capsys, "audit", "--check", "def3",
                         "--schedule", "ortho6", "--n", "8")
    assert code == 0
    rec = recs[0]
    assert rec["passed"] is True
    assert rec["kernel_witnesses"] == {"M1^M3": "invertible", "M4^M6": "invertible"}


def test_audit_def1_reports_counts(capsys):
    code, recs = run_cli(capsys, "audit", "--check", "def1",
                         "--schedule", "tweakem4", "--n", "8")
    assert code == 0
    rec = recs[0]
    assert (rec["delta1_times_n"], rec["delta2_times_n"], rec["delta3_times_n"]) == (3, 2, 2)
    assert rec["good_like"] is True


def test_attack_real_world_records(capsys):
    code, recs = run_cli(capsys, "attack", "--name", "thm3",
                         "--schedule", "identity_bad(4)", "--n", "8",
                         "--world", "real", "--trials", "5", "--seed", "3")
    assert code == 0
    assert len(recs) == 5
    assert all(r["bit"] == 1 and r["q_e"] == 4 and r["q_f"] == 0 for r in recs)
    assert all("trial_seed" in r for r in recs)


def test_attack_precondition_failure_exit_2(capsys):
    code, recs = run_cli(capsys, "attack", "--name", "thm3",
                         "--schedule", "minimal4", "--n", "8",
                         "--world", "real", "--trials", "1")
    assert code == 2
    assert recs[0]["error"] == "NotAffine"
    code, recs = run_cli(capsys, "attack", "--name", "appbany",
                         "--schedule", "ortho6", "--n", "8",
                         "--world", "real", "--trials", "1")
    assert code == 2
    assert recs[0]["error"] == "NoWeakDelta"


def test_too_few_sweep_rounds_exit_2(capsys):
    for pair, rounds in (("kafv-kafw", "1"), ("lucifer", "2")):
        code, recs = run_cli(capsys, "equivalence", "--pair", pair, "--n", "4",
                             "--rounds", rounds, "--seeds", "1")
        assert code == 2
        assert [r["error"] for r in recs] == ["TooFewRounds"]


def test_sweep_rounds_below_two_fail_before_any_schedule(capsys):
    """t = -1 once reached the KAFv schedule's arity check (ArityMismatch,
    exit 1); every t < 2 is TooFewRounds, exit 2."""
    for rounds in ("-1", "0", "1"):
        code, recs = run_cli(capsys, "equivalence", "--pair", "kafv-kafw", "--n", "3",
                             "--rounds", rounds, "--seeds", "1")
        assert code == 2
        assert recs == [{"command": "equivalence", "error": "TooFewRounds",
                         "message": "conversion needs t >= 2"}]


def test_advantage_summary_and_out_file(capsys, tmp_path):
    out = tmp_path / "records.ndjson"
    code, _ = run_cli(capsys, "advantage", "--attack", "appbany",
                      "--schedule", "identity_bad(8)", "--n", "8",
                      "--trials", "50", "--seed", "5", "--verbose",
                      "--out", str(out))
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    summary = lines[-1]
    assert summary["command"] == "advantage"
    assert summary["p_real"] == 1.0
    assert summary["p_ideal"] <= 0.05
    assert "lower bound" in summary["note"]
    trials = [l for l in lines if l["command"] == "advantage-trial"]
    assert len(trials) == 100  # both worlds


def test_unopenable_out_file_is_one_error_record(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "records.ndjson"
    code, recs = run_cli(capsys, "advantage", "--attack", "thm3",
                         "--schedule", "minimal4", "--n", "4", "--trials", "2",
                         "--out", str(missing))
    assert code == 1
    assert [r["error"] for r in recs] == ["KafwError"]
    assert recs[0]["command"] == "advantage"
    assert recs[0]["message"].startswith(f"cannot open output file {str(missing)!r}")
    assert not missing.parent.exists()


def test_failed_run_leaves_existing_out_file_untouched(capsys, tmp_path):
    out = tmp_path / "keep.ndjson"
    out.write_bytes(b'{"command": "advantage", "p_real": 1.0}\n')
    before = out.read_bytes()
    code, recs = run_cli(capsys, "advantage", "--attack", "thm3",
                         "--schedule", "minimal4", "--n", "4", "--trials", "0",
                         "--out", str(out))
    assert code == 1
    assert [r["error"] for r in recs] == ["DomainError"]
    assert recs[0]["command"] == "advantage"
    assert out.read_bytes() == before


def test_equivalence_exit_codes(capsys):
    code, recs = run_cli(capsys, "equivalence", "--pair", "kafv-kafw",
                         "--n", "4", "--rounds", "3", "--seeds", "1")
    assert code == 0
    assert recs[0]["passed"] is True
    code, recs = run_cli(capsys, "equivalence", "--pair", "lucifer",
                         "--n", "4", "--rounds", "4", "--seeds", "1")
    assert code == 0


def test_a_refused_sweep_derives_no_seed(capsys, monkeypatch):
    """Every oracle seed used to be derived before the sweep checked n, t
    or the seed count: `--n 99 --seeds 300000` spent 0.57 s before its
    error record, growing with --seeds."""
    def derive(*parts):
        raise AssertionError("a seed was derived")

    monkeypatch.setattr(cli, "derive_seed", derive)
    for pair, argv, error in (
        ("kafv-kafw", ("--n", "99", "--rounds", "4", "--seeds", "300000"), "DomainTooLarge"),
        ("lucifer", ("--n", "4", "--rounds", str(MAX_BUILTIN_ROUNDS + 1), "--seeds", "300000"), "DomainError"),
        ("kafv-kafw", ("--n", "4", "--rounds", "1", "--seeds", "300000"), "TooFewRounds"),
        ("lucifer", ("--n", "4", "--rounds", "2", "--seeds", "300000"), "TooFewRounds"),
        ("kafv-kafw", ("--n", "4", "--rounds", "4", "--seeds", "0"), "DomainError"),
        ("lucifer", ("--n", "99", "--rounds", "4", "--seeds", "-2"), "DomainTooLarge"),
    ):
        code, recs = run_cli(capsys, "equivalence", "--pair", pair, *argv)
        assert code != 0 and [r["error"] for r in recs] == [error], argv


def test_bound_vacuity_flag(capsys):
    code, recs = run_cli(capsys, "bound", "--theorem", "5", "--n", "8",
                         "--qf", "16", "--qe", "16")
    assert code == 0
    rec = recs[0]
    assert rec["vacuous"] is True and rec["precondition_ok"] is True
    code, recs = run_cli(capsys, "bound", "--theorem", "1", "--n", "8",
                         "--qf", "4", "--qe", "4",
                         "--delta1", "3/256", "--delta2", "2/256", "--delta3", "2/256")
    assert recs[0]["value"] == "23/8"


def test_schedule_file_roundtrip(capsys, tmp_path):
    sched = tmp_path / "s.sched"
    sched.write_text(
        "n = 8\nconstruction = kaf\n"
        "gamma1 = fieldcubic { m = 02 }\ngamma2 = zero\n"
        "gamma3 = zero\ngamma4 = fieldcubic { m = 03 }\n"
    )
    code, recs = run_cli(capsys, "audit", "--check", "cor1", "--schedule", str(sched))
    assert code == 0
    assert recs[0]["good_like"] is True


def test_bad_schedule_file_exit_1(capsys, tmp_path):
    sched = tmp_path / "bad.sched"
    sched.write_text("n = 8\ngamma1 = affine { matrix = [01, 02], constant = 00 }\n")
    code, recs = run_cli(capsys, "audit", "--check", "def1", "--schedule", str(sched))
    assert code == 1
    assert recs[0]["error"] == "BadMatrix"


def test_help_lists_builtin_schedules():
    text = build_parser().format_help()
    for name in BUILTIN_NAMES:
        assert name in text


def test_env_var_seed(capsys, monkeypatch):
    monkeypatch.setenv("KAFW_SEED", "99")
    code, recs = run_cli(capsys, "encrypt", "--schedule", "minimal4", "--n", "8",
                         "--key", "00", "--block", "0000")
    assert recs[0]["seed"] == 99
    code, recs = run_cli(capsys, "encrypt", "--schedule", "minimal4", "--n", "8",
                         "--key", "00", "--block", "0000", "--seed", "3")
    assert recs[0]["seed"] == 3


def test_advantage_verbose_runs_each_trial_once(capsys, monkeypatch):
    calls = []
    run = game.run_trial_detailed
    monkeypatch.setattr(game, "run_trial_detailed", lambda *a: calls.append(a) or run(*a))
    args = ("advantage", "--attack", "thm3", "--schedule", "identity_bad(4)", "--n", "8",
            "--trials", "7", "--seed", "2")
    code, verbose = run_cli(capsys, *args, "--verbose")
    assert code == 0 and len(calls) == 14
    assert [r["command"] for r in verbose] == ["advantage-trial"] * 14 + ["advantage"]
    code, quiet = run_cli(capsys, *args)
    assert quiet == verbose[-1:]


def test_advantage_accepts_the_attack_aliases(capsys):
    for alias, name in (("boomerang4", "thm3"), ("comp-any", "appbany")):
        runs = [run_cli(capsys, "advantage", "--attack", attack, "--schedule", "identity_bad(4)",
                        "--n", "8", "--trials", "5", "--seed", "1") for attack in (alias, name)]
        (code_a, [rec_a]), (code_n, [rec_n]) = runs
        assert code_a == code_n == 0
        assert {**rec_a, "attack": name} == rec_n


DATA = Path(__file__).resolve().parent / "data"
ENCRYPT8 = ("encrypt", "--schedule", "minimal4", "--n", "8")
THM3_IDEAL = ("attack", "--name", "thm3", "--schedule", "identity_bad(4)", "--n", "8",
              "--world", "ideal")


@pytest.mark.parametrize("argv, env, error", [
    (ENCRYPT8 + ("--key", "1ff", "--block", "0"), None, "DomainError"),
    (ENCRYPT8 + ("--key", "0", "--block", "10000"), None, "DomainError"),
    (ENCRYPT8 + ("--key", "zz", "--block", "0"), None, "DomainError"),
    (("schedule", "--schedule", "minimal4", "--n", "8", "--key", "100"), None, "DomainError"),
    (("audit", "--check", "def1", "--schedule", "no/such.sched"), None, "KafwError"),
    (ENCRYPT8 + ("--key", "0", "--block", "0"), "zz", "DomainError"),
    (("advantage", "--attack", "thm3", "--schedule", "identity_bad(4)", "--n", "8",
      "--trials", "0"), None, "DomainError"),
    (("attack", "--name", "thm3", "--schedule", "identity_bad(4)", "--n", "8",
      "--world", "real", "--trials", "0"), None, "DomainError"),
    (ENCRYPT8[:2] + ("tweakem4", "--n", "8", "--construction", "kaf", "--key", "0",
                     "--block", "0"), None, "ScheduleArityMismatch"),
    (("attack", "--name", "birthday", "--schedule", "minimal4", "--n", "4", "--qe", "100",
      "--world", "real"), None, "DomainError"),
    (("schedule", "--schedule", "minimal4", "--n", "40", "--key", "0"), None, "DomainError"),
    (("equivalence", "--pair", "kafv-kafw", "--n", "1", "--rounds", "4"), None, "DomainError"),
    (ENCRYPT8[:2] + ("bitperm_bad5", "--n", "4", "--key", "0", "--block", "0"), None,
     "DomainError"),
    (("bound", "--theorem", "1", "--n", "8", "--qf", "-1", "--qe", "4"), None, "DomainError"),
    (("bound", "--theorem", "2", "--n", "8", "--qf", "4", "--qe", "-1"), None, "DomainError"),
    (("bound", "--theorem", "1", "--n", "-1", "--qf", "4", "--qe", "4"), None, "DomainError"),
    (("bound", "--theorem", "6", "--n", "20000", "--qf", "1", "--qe", "1"), None, "DomainError"),
    (("bound", "--theorem", "1", "--n", "8", "--qf", "9" * 400, "--qe", "9" * 400), None, "DomainError"),
    (("equivalence", "--pair", "kafv-kafw", "--n", "4", "--rounds", "4", "--seeds", "0"), None,
     "DomainError"),
    (("equivalence", "--pair", "lucifer", "--n", "4", "--rounds", "4", "--seeds", "-2"), None,
     "DomainError"),
    (("bound", "--theorem", "1", "--n", "8", "--qf", "1", "--qe", "1", "--delta1", "-1"), None,
     "DomainError"),
    (ENCRYPT8 + ("--rounds", "0", "--key", "0", "--block", "0"), None, "ScheduleArityMismatch"),
    (THM3_IDEAL + ("--rounds", "-3"), None, "ScheduleArityMismatch"),
    (THM3_IDEAL + ("--rounds", "5"), None, "ScheduleArityMismatch"),
    (THM3_IDEAL + ("--trials", "1", "--construction", "kafv"), None, "ScheduleArityMismatch"),
    (("schedule", "--schedule", "minimal4", "--n", "8", "--rounds", "5", "--key", "0"), None,
     "ScheduleArityMismatch"),
    (("audit", "--check", "def1", "--schedule", "tweakem4", "--n", "8", "--rounds", "6"), None,
     "ScheduleArityMismatch"),
    (("advantage", "--attack", "thm3", "--schedule", str(DATA / "strong5.sched"), "--rounds", "4",
      "--trials", "1"), None, "ScheduleArityMismatch"),
    (ENCRYPT8[:2] + ("identity_bad", "--n", "8", "--rounds", "0", "--key", "0", "--block", "0"),
     None, "ArityMismatch"),
    (ENCRYPT8[:2] + (str(DATA / "kafv4_affine.sched"), "--n", "12", "--key", "1", "--block", "2"),
     None, "DomainError"),
    (("schedule", "--schedule", f"identity_bad({'9' * 5000})", "--n", "8", "--key", "01"), None, "DomainError"),
    (("schedule", "--schedule", f"identity_bad({10**30})", "--n", "8", "--key", "01"), None, "DomainError"),
    (("schedule", "--schedule", "identity_bad", "--n", "8", "--rounds", str(10**30), "--key", "01"), None,
     "DomainError"),
    *[(("equivalence", "--pair", pair, "--n", "2", "--rounds", str(MAX_BUILTIN_ROUNDS + 1), "--seeds", "1"), None,
       "DomainError") for pair in ("kafv-kafw", "lucifer")],
])
def test_bad_input_gives_one_error_record(capsys, monkeypatch, argv, env, error):
    if env is None:
        monkeypatch.delenv("KAFW_SEED", raising=False)
    else:
        monkeypatch.setenv("KAFW_SEED", env)
    code, recs = run_cli(capsys, *argv)
    assert code == 1
    assert [r["error"] for r in recs] == [error]
    assert recs[0]["command"] == argv[0]


@pytest.mark.parametrize("text", [
    "n = 8\ngamma1 = " + "xor [ " * 1000 + "zero" + " ]" * 1000 + "\n",
    f"n = {'9' * 5000}\ngamma1 = zero\n",
    f"n = 8\nt = {'9' * 5000}\ngamma1 = zero\n",
    f"n = 8\ngamma{'1' * 5000} = zero\n",
], ids=["xor 1000 deep", "n of 5000 digits", "t of 5000 digits", "slot index of 5000 digits"])
def test_a_schedule_file_past_the_parser_limits_is_one_error_record(capsys, tmp_path, text):
    sched = tmp_path / "limit.sched"
    sched.write_text(text)
    code, recs = run_cli(capsys, "schedule", "--schedule", str(sched), "--key", "01")
    assert code == 1
    assert [r["error"] for r in recs] == ["ParseError"]


def test_a_zero_denominator_is_a_usage_error_like_any_bad_fraction(capsys):
    """--delta1 1/0 exits 2 with argparse's usage message, as abc does, and no traceback."""
    errors = []
    for value in ("abc", "1/0"):
        with pytest.raises(SystemExit) as info:
            main(["bound", "--theorem", "1", "--n", "8", "--qf", "1", "--qe", "1", "--delta1", value])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        errors.append(captured.err.replace(repr(value), "VALUE"))
    assert errors[0] == errors[1]
    assert "argument --delta1: invalid Fraction value: VALUE" in errors[0]


def test_a_schedule_file_takes_a_matching_n(capsys):
    path = str(DATA / "kafv4_affine.sched")
    runs = [run_cli(capsys, "encrypt", "--schedule", path, *n, "--key", "1", "--block", "2")
            for n in ((), ("--n", "8"))]
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1][0]["n"] == 8


AUDIT_SCHEDULES = [
    ("minimal4", "--n", "8"),
    ("ortho6", "--n", "8"),
    (str(DATA / "kafv4_affine.sched"),),
    (str(DATA / "kafv6_affine.sched"),),
    (str(DATA / "lucifer4.sched"),),
]


@pytest.mark.parametrize("check", ("def1", "def3", "cor1", "cor2"))
@pytest.mark.parametrize("schedule", AUDIT_SCHEDULES, ids=lambda s: Path(s[0]).name)
def test_every_audit_of_every_schedule_kind_gives_one_record(capsys, check, schedule):
    code, recs = run_cli(capsys, "audit", "--check", check, "--schedule", *schedule)
    assert len(recs) == 1
    assert code in (0, 1, 2)
    assert (code == 0) == ("error" not in recs[0])


def test_closed_stdout_pipe_exits_1_without_a_traceback():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    # About 300 KB of records, well past a 64 KiB pipe buffer.
    argv = ["attack", "--name", "thm3", "--schedule", "identity_bad(4)", "--n", "8",
            "--world", "real", "--trials", "2000"]
    proc = subprocess.Popen([sys.executable, "-m", "kafw.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(proc.stdout.readline())["command"] == "attack"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


# main keeps one parser per process.  A cold interpreter installs a count of
# ArgumentParser builds, imports kafw.cli, then runs `main` on each argv of
# its JSON argument, printing each exit code after that call's records.
SEQUENCE = """import argparse, json, sys
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]
import kafw.cli
print(json.dumps({'numpy': 'numpy' in sys.modules, 'built': len(built)}))
for argv in json.loads(sys.argv[1]):
    print(json.dumps({'exit': kafw.cli.main(argv), 'built': len(built)}))
kafw.cli.build_parser()
print(json.dumps({'built': len(built)}))"""


def _cold_sequence(argvs):
    """The lines a cold interpreter prints for SEQUENCE over argvs."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("KAFW_SEED", None)
    out = subprocess.run([sys.executable, "-c", SEQUENCE, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stderr == ""
    return [json.loads(line) for line in out.stdout.splitlines()]


def _without_counts(lines):
    return [{k: v for k, v in line.items() if k != "built"} for line in lines]


def test_main_calls_in_one_process_give_the_records_of_separate_processes(tmp_path):
    # An error record, then good runs whose flags and defaults the earlier
    # calls set otherwise: nothing may carry over from one call to the next,
    # not even an option only the earlier command has (advantage's --out).
    out = tmp_path / "advantage.ndjson"
    argvs = [
        [*ENCRYPT8, "--key", "zz", "--block", "0", "--seed", "7", "--per-round-f"],
        [*ENCRYPT8, "--key", "2a", "--block", "1234", "--per-round-f", "--function-kind", "permutation"],
        ["advantage", "--attack", "comp-any", "--schedule", "identity_bad(8)", "--n", "8", "--trials", "3",
         "--out", str(out)],
        [*ENCRYPT8, "--key", "2a", "--block", "1234"],
        ["audit", "--check", "def1", "--schedule", "no/such.sched"],
        ["audit", "--check", "cor1", "--schedule", "minimal4", "--n", "6", "--threshold", "2"],
        ["audit", "--check", "def1", "--schedule", "minimal4", "--n", "6"],
        ["bound", "--theorem", "1", "--n", "8", "--qf", "4", "--qe", "4", "--delta1", "1/3"],
        ["bound", "--theorem", "1", "--n", "8", "--qf", "4", "--qe", "4"],
    ]
    together = _cold_sequence(argvs)
    apart = [line for argv in argvs for line in _cold_sequence([argv])[1:-1]]
    assert _without_counts(together[1:-1]) == _without_counts(apart)
    assert [line["exit"] for line in together[1:-1] if "exit" in line] == [1, 0, 0, 0, 1, 0, 0, 0, 0]
    records = [line for line in together if "command" in line]
    assert [r["command"] for r in records[:3]] == ["encrypt"] * 3
    assert [r["per_round_f"] for r in records[1:3]] == [True, False] and records[2]["seed"] == 0
    assert [json.loads(line)["command"] for line in out.read_text().splitlines()] == ["advantage"]


def test_importing_kafw_cli_builds_no_parser_and_main_builds_one():
    first, *calls, last = _cold_sequence([["bound", "--theorem", "1", "--n", "8", "--qf", "1", "--qe", "1"]] * 3)
    assert first == {"numpy": False, "built": 0}
    one_parser = calls[1]["built"]  # parsers and subparsers of one build_parser()
    assert one_parser > 1 and [c["built"] for c in calls if "exit" in c] == [one_parser] * 3
    assert last["built"] == 2 * one_parser  # build_parser() still builds afresh


def _parse_exit(parse, argv, capsys):
    """The exit code, stdout and stderr of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["audit", "--help"],
    ["bound", "-h"],
    [],
    ["nope"],
    ["audit", "--check", "nope", "--schedule", "minimal4"],
    ["encrypt", "--schedule", "minimal4", "--n", "eight", "--key", "0", "--block", "0"],
    ["bound", "--theorem", "3", "--n", "8", "--qf", "1", "--qe", "1"],
    ["bound", "--theorem", "1", "--n", "8", "--qf", "1", "--qe", "1", "--delta1", "1/0"],
    ["schedule", "--schedule", "minimal4", "--key", "0", "--extra"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_help_and_usage_errors_match_a_fresh_parser_byte_for_byte(capsys, argv):
    fresh = _parse_exit(lambda a: build_parser().parse_args(a), argv, capsys)
    assert fresh[0] in (0, 2) and (fresh[1] or fresh[2])
    for _ in range(2):  # twice: using the kept parser must not change what it prints
        assert _parse_exit(main, argv, capsys) == fresh
