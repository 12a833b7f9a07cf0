"""Command-line experiment harness.

Subcommands generate demo corpora, label criticality, run rollouts, and run
the sweep experiments, each emitting CSV suitable for plotting. Each
subcommand declares only the flags it reads. A plain-text config file (INI
key = value under section headers) can preset any of them: only the section
named after the subcommand applies, and command-line flags win. SAILX_LOG
sets the log level. Exit code 0 means all
requested trials completed (regardless of task success); usage errors exit
with code 2, internal faults with 1.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from configparser import (ConfigParser, Error as ConfigError,
                          MissingSectionHeaderError, ParsingError)

import numpy as np

from . import experiments as ex
from .errors import SailxError, InvalidInputError
from .io import load_demos, save_demos, write_rollout, read_rollout
from .metrics import aggregate
from .sim import T_MAX
from .speedmod import label_critical, gripper_event_flags

log = logging.getLogger("sailx")


def _strings(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip() != ""]


def _number(cast, ok, rule: str):
    """An argparse type: ``cast(text)``, refused unless ``ok`` of it."""
    def parse(text: str):
        value = cast(text)  # argparse reports a ValueError as invalid
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value:g}")
        return value
    parse.__name__ = cast.__name__  # argparse: "invalid int value: 'x'"
    return parse


def _list_of(parse):
    """An argparse type: a non-empty comma-separated list of ``parse``
    values."""
    def parse_list(text: str) -> list:
        values = [parse(x) for x in _strings(text)]
        if not values:
            raise argparse.ArgumentTypeError("must be a non-empty "
                                             "comma-separated list")
        return values
    parse_list.__name__ = f"{parse.__name__} list"
    return parse_list


_seed = _number(int, lambda v: v >= 0, ">= 0")
_count = _number(int, lambda v: v >= 1, ">= 1")
_speedup = _number(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_speedups = _list_of(_speedup)
_scales = _list_of(_number(float, lambda v: 0.0 <= v < math.inf,
                           "finite and >= 0"))


def _method(text: str) -> str:
    """An argparse type: one of ``experiments.METHODS``."""
    if text not in ex.METHODS:
        raise argparse.ArgumentTypeError(
            f"must be one of {', '.join(ex.METHODS)}, got {text!r}")
    return text


def _out_file(text: str) -> str:
    """An argparse type: an output file path in an existing directory."""
    folder = os.path.dirname(text) or os.curdir
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no directory {folder!r}")
    return text


def _corpus(args):
    if args.demos:
        demos = load_demos(args.demos)
        log.info("loaded %d demos from %s", len(demos), args.demos)
        return demos
    log.info("no --demos directory given; generating a fresh corpus")
    return ex.build_demo_corpus(n=50, seed=args.seed)


def _emit(rows, out: str | None) -> None:
    text = ex.rows_to_csv(rows)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text)


def cmd_gen_demos(args) -> int:
    demos = ex.build_demo_corpus(n=args.trials, seed=args.seed)
    save_demos(demos, args.out)
    print(f"wrote {len(demos)} demos to {args.out}")
    return 0


def cmd_label(args) -> int:
    demos = _corpus(args)
    rows = []
    for i, d in enumerate(demos):
        dense = label_critical(d.commanded[:, :3])
        grip = gripper_event_flags(d.grippers)
        rows.append({"demo": i, "steps": len(d),
                     "critical": int(np.sum(np.maximum(dense, grip))),
                     "dense": int(np.sum(dense)),
                     "gripper_events": int(np.sum(grip))})
    _emit(rows, args.out)
    return 0


def cmd_rollout(args) -> int:
    demos = _corpus(args)
    rollouts = ex.run_method_rollouts(
        [(args.method, args.c, args.seed + t) for t in range(args.trials)],
        demos)
    for t, rollout in enumerate(rollouts):
        print(f"trial {t}: success={rollout.success} "
              f"duration={rollout.duration:.3f}s stalls={rollout.stall_count}")
        if args.out:
            path = args.out if args.trials == 1 else \
                f"{os.path.splitext(args.out)[0]}_{t:03d}.jsonl"
            write_rollout(rollout, path)
    return 0


def cmd_metrics(args) -> int:
    rollouts = [read_rollout(p) for p in args.inputs]
    mean_demo = None
    if args.demos:
        mean_demo = float(np.mean([d.duration
                                   for d in load_demos(args.demos)]))
    report = aggregate(rollouts, t_max=T_MAX, mean_demo_duration=mean_demo)
    _emit([report.as_row()], args.out)
    return 0


def cmd_diagnose(args) -> int:
    demos = _corpus(args)
    rows = ex.run_diagnostics(demos, c_values=tuple(args.c_values),
                              trials=args.trials, seed=args.seed)
    _emit(rows, args.out)
    return 0


def cmd_sweep_speed(args) -> int:
    demos = _corpus(args)
    rows = ex.sweep_speed(demos, methods=tuple(args.method),
                          c_values=tuple(args.c_values), trials=args.trials,
                          seed=args.seed, jobs=args.jobs)
    _emit(rows, args.out)
    return 0


def cmd_sweep_gain_replay(args) -> int:
    demos = _corpus(args)
    rows = ex.sweep_gain_replay(demos, c_values=tuple(args.c_values),
                                seed=args.seed)
    _emit(rows, args.out)
    return 0


def cmd_sweep_noise(args) -> int:
    demos = _corpus(args)
    rows = ex.sweep_noise(demos, scales=tuple(args.scales),
                          trials=args.trials, seed=args.seed)
    _emit(rows, args.out)
    return 0


def cmd_report(args) -> int:
    import csv as _csv
    try:
        with open(args.input, newline="") as fh:
            rows = list(_csv.DictReader(fh))
    except FileNotFoundError:
        raise InvalidInputError(f"no sweep CSV {args.input}") from None
    if not rows:
        raise InvalidInputError("empty sweep CSV")
    cols = [c for c in ("method", "gain", "target", "c", "noise", "n", "sr",
                        "tpr", "sod", "atr", "sparc") if c in rows[0]]
    widths = {c: max(len(c), *(len(r.get(c, "") or "") for r in rows))
              for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join((r.get(c, "") or "").ljust(widths[c]) for c in cols))
    return 0


_SHARED_FLAGS = {
    "--seed": dict(type=_seed, default=0),
    "--out": dict(type=_out_file, help="output path (CSV unless noted); "
                                       "its directory must exist"),
    "--demos": dict(help="directory of saved demos; generated fresh when "
                         "omitted"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sailx", description="speed-adaptive execution experiments")
    parser.add_argument("--config", help="INI config presetting any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags=(), trials=None):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        if trials is not None:
            p.add_argument("--trials", type=_count, default=trials)
        p.set_defaults(func=func)
        return p

    corpus = ("--seed", "--out", "--demos")
    p = command("gen-demos", cmd_gen_demos, "generate and save a demo corpus",
                ("--seed",), trials=50)
    p.add_argument("--out", required=True, help="directory for the demo files")
    command("label", cmd_label, "criticality labels per demo", corpus)

    p = command("rollout", cmd_rollout, "closed-loop rollouts of one method",
                corpus, trials=1)
    p.add_argument("--method", type=_method, default="sail")
    p.add_argument("--c", type=_speedup, default=1.0)

    p = command("metrics", cmd_metrics, "aggregate saved rollouts",
                ("--out",))
    p.add_argument("--demos", help="directory of saved demos; their mean "
                                   "duration fills sod, left empty when "
                                   "omitted")
    p.add_argument("inputs", nargs="+", help="rollout .jsonl files")

    p = command("diagnose", cmd_diagnose, "single-step OOD score trials",
                corpus, trials=200)
    p.add_argument("--c-values", type=_speedups, default=[1.0, 0.33, 0.2])

    p = command("sweep-speed", cmd_sweep_speed, "method x speedup sweep",
                corpus, trials=20)
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--method", type=_list_of(_method),
                   default=["sail", "dp-fast"])
    p.add_argument("--c-values", type=_speedups,
                   default=[1.0, 0.5, 0.33, 0.2, 0.1])

    p = command("sweep-gain-replay", cmd_sweep_gain_replay,
                "gain x target x speedup replay", corpus)
    p.add_argument("--c-values", type=_speedups,
                   default=[1.0, 0.5, 0.33, 0.2])

    p = command("sweep-noise", cmd_sweep_noise,
                "reference-noise x gain replay", corpus, trials=100)
    p.add_argument("--scales", type=_scales,
                   default=[0.0, 0.002, 0.005, 0.01])

    p = command("report", cmd_report, "summary table from a sweep CSV")
    p.add_argument("input", help="sweep CSV file")
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold the subcommand's config section in as flags after the command."""
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    if not os.path.exists(known.config):
        raise InvalidInputError(f"config file not found: {known.config}")
    ini = ConfigParser()
    try:
        ini.read(known.config)
    except MissingSectionHeaderError as e:
        raise InvalidInputError(f"config {known.config}, line {e.lineno}: "
                                "no [section] header above it") from None
    except ParsingError as e:
        raise InvalidInputError(f"config {known.config}, line "
                                f"{e.errors[0][0]}: expected 'key = value'"
                                ) from None
    except ConfigError as e:  # a repeated section or key
        raise InvalidInputError(f"config {known.config}: {e}") from None
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    i = next((i for i, token in enumerate(argv) if token in commands), None)
    if i is None or not ini.has_section(argv[i]):
        return argv
    extra: list[str] = []
    for key, value in ini.items(argv[i]):
        extra += [f"--{key.replace('_', '-')}", value]
    # insert right after the subcommand so explicit flags still override
    return argv[:i + 1] + extra + argv[i + 1:]


def _log_level() -> str:
    """SAILX_LOG's level name, WARNING when it is unset."""
    level = os.environ.get("SAILX_LOG", "WARNING").upper()
    # a registered name maps to its number, anything else to a string
    if not isinstance(logging.getLevelName(level), int):
        raise InvalidInputError(f"SAILX_LOG={level!r} is not a log level "
                                "(DEBUG, INFO, WARNING, ERROR, CRITICAL)")
    return level


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        logging.basicConfig(level=_log_level(),
                            format="%(levelname)s %(name)s: %(message)s")
        args = parser.parse_args(_apply_config(parser, argv))
        return args.func(args)
    except InvalidInputError as e:
        parser.exit(2, f"sailx: usage error: {e}\n")
    except SailxError as e:
        log.error("%s", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
