"""Experiment front-end.

Subcommands: encrypt, schedule, audit, attack, advantage, equivalence,
bound.  Output is newline-delimited JSON, one self-describing record per
line, and every record carries the seed material needed to replay it.
Exit codes: 0 success, 2 when an attack or audit precondition fails
(e.g. no weak offset exists), 1 on any other error.

The default seed may also come from the KAFW_SEED environment variable;
an explicit --seed flag wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import game
from .auditor import (
    check_corollary1_affine,
    check_corollary1_nl,
    check_corollary2,
    check_definition1,
    check_definition3,
)
from .equivalence import kafv_vs_kafw_sweep, lucifer_sandwich_sweep
from .errors import (
    DomainError,
    DomainTooLarge,
    KafwError,
    NoWeakDelta,
    NotAffine,
    OddN,
    ScheduleArityMismatch,
    TooFewRounds,
)
from .feistel import CipherInstance
from .gf2 import DomainParams
from .oracles import derive_seed
from .schedfile import ParsedSchedule, parse_schedule_text
from .schedules import (
    BUILTIN_NAMES,
    CONSTRUCTIONS,
    KafvSchedule,
    KeySchedule,
    LuciferSchedule,
    builtin,
    check_construction,
    is_builtin,
    kafv_to_kafw,
)

_PRECONDITION_ERRORS = (NoWeakDelta, NotAffine, TooFewRounds, OddN, DomainTooLarge)

_BUILTIN_HELP = (
    "a schedule file path or one of the builtin names: " + ", ".join(BUILTIN_NAMES)
)


def _emit(record: dict, out) -> None:
    out.write(json.dumps(record) + "\n")


def _hexw(value: int, n: int) -> str:
    return f"{value:0{(n + 3) // 4}x}"


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("KAFW_SEED")
    try:
        return int(env, 0) if env else 0
    except ValueError:
        raise DomainError(f"KAFW_SEED must be an integer, got {env!r}") from None


def _hex_arg(text: str, bits: int, what: str) -> int:
    """A hex command-line value, checked to lie below 2^bits."""
    try:
        value = int(text, 16)
    except ValueError:
        raise DomainError(f"{what} must be hex, got {text!r}") from None
    if not 0 <= value < 1 << bits:
        raise DomainError(f"{what} {text!r} does not fit in {bits} bits")
    return value


def _fraction_arg(text: str) -> Fraction:
    """Fraction(text); a zero denominator is a usage error like any other bad value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _load_schedule(source: str, n: int | None, rounds: int | None) -> ParsedSchedule:
    """Builtin name or file path; builtins need --n, and a file's width must
    equal it if given.  --rounds gives a bare identity_bad its round count
    and must equal every other schedule's."""
    if not is_builtin(source):
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise KafwError(f"cannot read schedule file {source!r}: {exc}") from None
        parsed = parse_schedule_text(text)
        width = parsed.schedule.params.n
        if n is not None and n != width:
            raise DomainError(f"schedule file width {width} != --n {n}")
    elif n is None:
        raise KafwError("builtin schedules need --n")
    else:
        parsed = ParsedSchedule("kafw", builtin(source, DomainParams.for_width(n), rounds=rounds))
    t = parsed.schedule.t
    if rounds is not None and rounds != t:
        raise ScheduleArityMismatch(f"schedule arity {t} != rounds {rounds}")
    return parsed


def cmd_encrypt(args, out) -> int:
    seed = _default_seed(args)
    spec = _construction_spec(args, _load_schedule(args.schedule, args.n, args.rounds))
    p = spec.params
    check_construction(spec.construction, spec.schedule)
    instance = CipherInstance(spec.schedule, game.round_oracles(spec, seed))
    key = _hex_arg(args.key, p.n, "key")
    block = _hex_arg(args.block, 2 * p.n, "block")
    ct = instance.encrypt_block(key, block)
    _emit(
        {
            "command": "encrypt",
            "n": p.n,
            "rounds": spec.rounds,
            "construction": spec.construction,
            "schedule": args.schedule,
            "key": _hexw(key, p.n),
            "block": _hexw(block, 2 * p.n),
            "seed": seed,
            "function_kind": args.function_kind,
            "per_round_f": bool(args.per_round_f),
            "ciphertext": _hexw(ct, 2 * p.n),
        },
        out,
    )
    return 0


def cmd_schedule(args, out) -> int:
    parsed = _load_schedule(args.schedule, args.n, args.rounds)
    s = parsed.schedule
    p = s.params
    key = _hex_arg(args.key, p.n, "key")
    record = {
        "command": "schedule",
        "construction": parsed.construction,
        "n": p.n,
        "t": s.t,
        "key": _hexw(key, p.n),
    }
    if isinstance(s, KeySchedule):
        record["whitening"] = [_hexw(s.whitening_key(j, key), p.n) for j in range(4)]
    if isinstance(s, KafvSchedule):
        record["subkeys"] = [_hexw(s.subkey(i, key), p.n) for i in range(s.t + 2)]
    else:  # KAFw and Lucifer round keys k_1..k_t
        record["round_keys"] = [_hexw(s.round_key(i, key), p.n) for i in range(1, s.t + 1)]
    _emit(record, out)
    return 0


# --check name -> audit; cor1 is the non-linear audit at t = 4, the affine one otherwise.
_AUDITS = {
    "def1": check_definition1,
    "def3": lambda s, threshold: check_definition3(s),
    "cor1": lambda s, threshold: (
        check_corollary1_nl(s, threshold) if s.t == 4 else check_corollary1_affine(s)
    ),
    "cor2": lambda s, threshold: check_corollary2(s),
}


def cmd_audit(args, out) -> int:
    s = _load_schedule(args.schedule, args.n, args.rounds).schedule
    report = _AUDITS[args.check](s, args.threshold)
    n = report.n
    record = {
        "command": "audit",
        "check": report.check,
        "schedule": args.schedule,
        "n": n,
        "passed": report.passed,
    }
    if report.delta1_times_n is not None:
        record.update(
            delta1_times_n=report.delta1_times_n,
            delta2_times_n=report.delta2_times_n,
            delta3_times_n=report.delta3_times_n,
            good_like=report.good_like,
            threshold=report.threshold,
        )
    if report.phi_bijectivity:
        record["phi_bijectivity"] = report.phi_bijectivity
    if report.kernel_witnesses:
        record["kernel_witnesses"] = {
            label: "invertible" if w is None else _hexw(w, n)
            for label, w in report.kernel_witnesses.items()
        }
    _emit(record, out)
    return 0


def _construction_spec(args, parsed: ParsedSchedule) -> game.ConstructionSpec:
    s = parsed.schedule
    return game.ConstructionSpec(
        params=s.params,
        rounds=s.t,
        schedule=s,
        construction=args.construction or parsed.construction,
        function_kind=args.function_kind,
        single_f=not args.per_round_f,
    )


def _game_setup(args):
    """Seed, construction and distinguisher of an attack or advantage run."""
    seed = _default_seed(args)
    spec = _construction_spec(args, _load_schedule(args.schedule, args.n, args.rounds))
    if isinstance(spec.schedule, KafvSchedule):
        # Attacks and the game target the KAFw form; functionally identical.
        spec = dataclasses.replace(spec, schedule=kafv_to_kafw(spec.schedule), construction="kafw")
    elif isinstance(spec.schedule, LuciferSchedule):
        raise KafwError("attack/advantage need a kafw, kaf, or kafv schedule")
    return seed, spec, game.ATTACKS[args.name](args.qe, args.qg, spec.rounds)


def cmd_attack(args, out) -> int:
    seed, spec, d = _game_setup(args)
    for kind, i, trial_seed, outcome in game.iter_trials(d, spec, args.trials, seed, (args.world,)):
        _emit(
            {
                "command": "attack",
                "name": args.name,
                "world": kind,
                "trial": i,
                "seed": seed,
                "trial_seed": trial_seed,
                "bit": outcome.bit,
                "q_e": outcome.q_e_used,
                "q_f": outcome.q_f_used,
            },
            out,
        )
    return 0


def _emit_trials(trials, attack: str, out):
    """Pass trials through, writing one advantage-trial record for each."""
    for kind, i, trial_seed, outcome in trials:
        _emit(
            {
                "command": "advantage-trial",
                "attack": attack,
                "world": kind,
                "trial": i,
                "trial_seed": trial_seed,
                "bit": outcome.bit,
                "q_e": outcome.q_e_used,
                "q_f": outcome.q_f_used,
            },
            out,
        )
        yield kind, i, trial_seed, outcome


def cmd_advantage(args, out) -> int:
    seed, spec, d = _game_setup(args)
    trials = game.iter_trials(d, spec, args.trials, seed)
    if args.verbose:
        trials = _emit_trials(trials, args.name, out)
    est = game.summarize_trials(trials)
    _emit(
        {
            "command": "advantage",
            "attack": args.name,
            "schedule": args.schedule,
            "construction": spec.construction,
            "n": spec.params.n,
            "trials": est.trials,
            "seed": seed,
            "p_real": est.p_real,
            "p_ideal": est.p_ideal,
            "advantage": est.advantage,
            "ci_halfwidth": est.ci_halfwidth,
            "mean_q_e": est.mean_q_e,
            "mean_q_f": est.mean_q_f,
            "note": "advantage of one fixed distinguisher: a lower bound on insecurity",
        },
        out,
    )
    return 0


def cmd_equivalence(args, out) -> int:
    seed = _default_seed(args)
    seeds = (derive_seed(seed, "sweep", i) for i in range(args.seeds))  # read after the sweep's checks
    if args.pair == "kafv-kafw":
        result = kafv_vs_kafw_sweep(args.n, args.rounds, seeds)
    elif args.pair == "lucifer":
        result = lucifer_sandwich_sweep(args.n, args.rounds, seeds)
    else:
        raise KafwError(f"unknown pair {args.pair!r}")
    _emit(
        {
            "command": "equivalence",
            "pair": args.pair,
            "n": args.n,
            "rounds": args.rounds,
            "seed": seed,
            "oracle_seeds": args.seeds,
            "cases": result.cases,
            "mismatches": result.mismatches,
            "passed": result.passed,
        },
        out,
    )
    return 0 if result.passed else 1


def cmd_bound(args, out) -> int:
    if args.n < 0:
        raise DomainError(f"n must be nonnegative, got {args.n}")
    result = game.bound_formula(
        args.theorem, args.qf, args.qe, 1 << args.n, args.delta1, args.delta2, args.delta3
    )
    try:
        value, value_float = str(result.value), float(result.value)
    except (ValueError, OverflowError) as e:  # past str's digit limit or float's range
        raise DomainError(f"the bound's value cannot be printed: {e}") from None
    _emit(
        {
            "command": "bound",
            "theorem": args.theorem,
            "n": args.n,
            "q_f": args.qf,
            "q_e": args.qe,
            "delta1": str(args.delta1),
            "delta2": str(args.delta2),
            "delta3": str(args.delta3),
            "value": value,
            "value_float": value_float,
            "precondition_ok": result.precondition_ok,
            "vacuous": result.vacuous,
        },
        out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kafw",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="builtin schedules: " + ", ".join(BUILTIN_NAMES),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--schedule", required=True, help=_BUILTIN_HELP)
        sp.add_argument("--n", type=int, help="half-block width (required for builtins)")
        sp.add_argument("--rounds", type=int, help="round count: sets identity_bad's, checks others'")
        sp.add_argument("--seed", type=int, default=None, help="base seed (default: $KAFW_SEED or 0)")

    def construction(sp, function_kind, per_round_f):
        sp.add_argument("--construction", choices=tuple(CONSTRUCTIONS))
        sp.add_argument("--function-kind", choices=("function", "permutation"),
                        default=function_kind)
        sp.add_argument("--per-round-f", action="store_true", default=per_round_f,
                        help="independent per-round functions")

    sp = sub.add_parser("encrypt", help="evaluate one encryption")
    common(sp)
    construction(sp, "function", False)
    sp.add_argument("--key", required=True, help="master key, hex")
    sp.add_argument("--block", required=True, help="2n-bit plaintext, hex")
    sp.set_defaults(run=cmd_encrypt)

    sp = sub.add_parser("schedule", help="show derived sub-keys for a key")
    common(sp)
    sp.add_argument("--key", required=True, help="master key, hex")
    sp.set_defaults(run=cmd_schedule)

    sp = sub.add_parser("audit", help="measure key-schedule goodness")
    common(sp)
    sp.add_argument("--check", required=True, choices=tuple(_AUDITS))
    sp.add_argument("--threshold", type=int, default=3, help="good-like cutoff for the delta counts")
    sp.set_defaults(run=cmd_audit)

    sp = sub.add_parser("attack", help="run a distinguisher, one record per trial")
    common(sp)
    sp.add_argument("--name", required=True, choices=tuple(game.ATTACKS))
    sp.add_argument("--world", required=True, choices=("real", "ideal"))
    sp.add_argument("--trials", type=int, default=1)
    construction(sp, "permutation", True)
    sp.add_argument("--single-f", dest="per_round_f", action="store_false")
    sp.add_argument("--qe", type=int, default=2, help="related-key queries (birthday)")
    sp.add_argument("--qg", type=int, default=2, help="offline key guesses (birthday)")
    sp.set_defaults(run=cmd_attack)

    sp = sub.add_parser("advantage", help="estimate real-vs-ideal advantage")
    common(sp)
    sp.add_argument("--attack", dest="name", required=True, choices=tuple(game.ATTACKS))
    sp.add_argument("--trials", type=int, default=1000)
    construction(sp, "function", False)
    sp.add_argument("--qe", type=int, default=2, help="related-key queries (birthday)")
    sp.add_argument("--qg", type=int, default=2, help="offline key guesses (birthday)")
    sp.add_argument("--out", type=str, default=None, help="write records to this path")
    sp.add_argument("--verbose", action="store_true", help="also emit per-trial records")
    sp.set_defaults(run=cmd_advantage)

    sp = sub.add_parser("equivalence", help="exhaustive structural identity checks")
    sp.add_argument("--pair", required=True, choices=("kafv-kafw", "lucifer"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--seeds", type=int, default=3, help="number of oracle seeds")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(run=cmd_equivalence)

    sp = sub.add_parser("bound", help="evaluate a published advantage bound")
    sp.add_argument("--theorem", type=int, required=True, choices=(1, 2, 5, 6))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--qf", type=int, required=True)
    sp.add_argument("--qe", type=int, required=True)
    sp.add_argument("--delta1", type=_fraction_arg, default=Fraction(0))
    sp.add_argument("--delta2", type=_fraction_arg, default=Fraction(0))
    sp.add_argument("--delta3", type=_fraction_arg, default=Fraction(0))
    sp.set_defaults(run=cmd_bound)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept, as a build
    takes longer than many a whole command.  Parsing leaves it as it was,
    so each call gets what a fresh build_parser() would give."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early: stop quietly, and keep the flush at
        # interpreter exit from failing on the closed pipe too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _open_out(path: str, mode: str):
    try:
        return open(path, mode)
    except OSError as exc:
        raise KafwError(f"cannot open output file {path!r}: {exc}") from None


class _OutFile:
    """The --out file, opened (and so emptied) on the first record written.

    A run that fails before writing a record leaves an existing file as it
    was.  The path is still checked up front by opening it for append, which
    writes nothing, so an unwritable path fails before the command runs.
    """

    def __init__(self, path: str):
        self.path = path
        self.file = None
        _open_out(path, "a").close()

    def write(self, text: str) -> None:
        if self.file is None:
            self.file = _open_out(self.path, "w")
        self.file.write(text)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def _run(args) -> int:
    out = None
    try:
        if getattr(args, "out", None):
            out = _OutFile(args.out)
        return args.run(args, out or sys.stdout)
    except KafwError as exc:
        _emit({"command": args.cmd, "error": type(exc).__name__, "message": str(exc)}, sys.stdout)
        return 2 if isinstance(exc, _PRECONDITION_ERRORS) else 1
    finally:
        if out:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
