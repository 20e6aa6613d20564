"""Command-line driver: evaluators and verification suites with JSON reports.

Exit codes: 0 success/pass, 1 verification mismatch, 2 usage or input error,
3 numerical failure (series truncation cap exceeded).  Reports are
deterministic for a fixed seed; wall-clock time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import InputFormatError, SuperintError, TruncationCapExceeded
from .integrals import SuperEigenvalues, bk_closed_form, ls_closed_form
from .precision import DEFAULT_BITS, DEFAULT_GUARD_BITS, DEFAULT_SEED, DEFAULT_TRUNCATION_CAP, Precision, Slotted

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

PREC_BITS_ENV = "SUPERGROUP_PREC_BITS"


def _default_prec_bits() -> int:
    """Precision when `--prec-bits` is absent: `SUPERGROUP_PREC_BITS`, else DEFAULT_BITS.

    Read only then, so a malformed variable never overrides an explicit flag.
    """
    env_bits = os.environ.get(PREC_BITS_ENV)
    if not env_bits:
        return DEFAULT_BITS
    try:
        return int(env_bits)
    except ValueError:
        raise ValueError(f"{PREC_BITS_ENV} must be an integer, got {env_bits!r}") from None


def _load_input(args) -> dict:
    if args.input_json is not None:
        text = args.input_json
    elif args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputFormatError(f"cannot read input file: {exc}") from exc
    else:
        raise InputFormatError("one of --input or --input-json is required")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("input document must be a JSON object")
    return doc


def _ls_eval(args, prec, options):
    doc = _load_input(args)
    try:
        ev = SuperEigenvalues.from_json(doc)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputFormatError(f"bad eigenvalue document: {exc}") from exc
    result = ls_closed_form(ev, prec)
    return None, {"result": result.to_json()}, {"input": ev.to_json()}


def _bk_eval(args, prec, options):
    doc = _load_input(args)
    try:
        beta = doc["beta"]
        lam = SuperEigenvalues.from_json({**doc["lambda"], "beta": beta})
        mu = SuperEigenvalues.from_json({**doc["mu"], "beta": beta})
        if (lam.m, lam.n) != (mu.m, mu.n):
            raise ValueError("the two eigenvalue sets must share (m, n)")
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputFormatError(f"bad eigenvalue document: {exc}") from exc
    result = bk_closed_form(lam, mu, prec)
    return None, {"result": result.to_json()}, {"input": {"lambda": lam.to_json(), "mu": mu.to_json()}}


class Command(Slotted):
    """One subcommand: its help line, its own flags and what it runs.

    `run(args, prec, options)` takes argparse's namespace, the Precision
    and the values of the command's own flags other than its input, and
    returns (passed, report body, config echo beyond those flags); passed is
    None for an evaluator, whose report carries no status.
    """

    __slots__ = ("help", "flags", "run")


_INPUT_FLAGS = {
    "--input": {"type": str, "default": None, "help": "path to the input document"},
    "--input-json": {"type": str, "default": None, "help": "inline input document"},
}

_COMMON_FLAGS = {
    "--prec-bits": {
        "type": int,
        "default": None,
        "help": f"working precision in bits (default: ${PREC_BITS_ENV}, else {DEFAULT_BITS})",
    },
    "--trunc-cap": {
        "type": int,
        "default": None,
        "help": f"series term cap (default: the larger of {DEFAULT_TRUNCATION_CAP} and (bits + {DEFAULT_GUARD_BITS}) // 8)",
    },
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--jobs": {"type": int, "default": 1},
    "--json-out": {"type": str, "default": None, "help": "report path (default: stdout)"},
}


def _acceptance():
    """The verification suites, imported when a suite command runs: an
    evaluator process loads none of their modules, nor multiprocessing."""
    from . import acceptance

    return acceptance


def _ints(**defaults) -> dict:
    """Integer flags with defaults: max_boxes=8 gives --max-boxes."""
    return {"--" + k.replace("_", "-"): {"type": int, "default": v} for k, v in defaults.items()}


COMMANDS = {
    "ls-eval": Command("evaluate the one-source integral from JSON input", _INPUT_FLAGS, _ls_eval),
    "bk-eval": Command("evaluate the two-source integral from JSON input", _INPUT_FLAGS, _bk_eval),
    "conjecture-verify": Command(
        "seeded antisymmetric-vs-split series check",
        {
            "--N": {"type": int, "required": True},
            "--m": {"type": int, "default": None, "help": "block size (default: every m)"},
            "--samples": {"type": int, "default": 10},
            "--radius": {"type": str, "default": "2"},
        },
        lambda a, prec, opts: _acceptance().conjecture_check(a.seed, prec, a.jobs, **opts),
    ),
    "lr-check": Command(
        "exact coefficient recursion sweep",
        _ints(m=2, n=2, max_boxes=8),
        lambda a, prec, opts: _acceptance().lr_check(**opts),
    ),
    "strninxi-check": Command(
        "supertrace power expansion check",
        _ints(m=2, n=2, max_boxes=6),
        lambda a, prec, opts: _acceptance().supertrace_check(a.seed, **opts),
    ),
    "appendix-e-verify": Command(
        "explicit Haar integration vs closed form",
        {},
        lambda a, prec, opts: _acceptance().haar_check(a.seed, prec),
    ),
    "theorems-check": Command(
        "rearrangement/determinant identity checks",
        _ints(N=5),
        lambda a, prec, opts: _acceptance().theorems_check(a.seed, **opts),
    ),
    "selftest": Command(
        "run the full acceptance suite",
        {},
        lambda a, prec, opts: _acceptance().selftest(a.seed, prec, a.jobs),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superint",
        description="Closed-form supergroup integrals and their verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"superint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, spec in {**command.flags, **_COMMON_FLAGS}.items():
            p.add_argument(flag, **spec)
    return parser


def _run(args) -> tuple:
    """Resolve the settings and run the command: (exit code, report text), which main writes.

    The settings are checked in order, $SUPERGROUP_PREC_BITS, the Precision
    (bits and cap), then --jobs, all before the command reads its input.
    """
    bits = args.prec_bits if args.prec_bits is not None else _default_prec_bits()
    prec = Precision(bits=bits, truncation_cap=args.trunc_cap)
    if args.jobs < 1:
        raise ValueError("jobs must be at least 1")
    command = COMMANDS[args.command]
    dests = [flag[2:].replace("-", "_") for flag in command.flags if flag not in _INPUT_FLAGS]
    options = {dest: getattr(args, dest) for dest in dests}
    passed, body, echo = command.run(args, prec, options)
    report = {
        "schema": "superint-report/1",
        "tool": {"name": "superint", "version": __version__},
        "command": args.command,
        "config": {
            "precision_bits": prec.bits,
            "truncation_cap": prec.truncation_cap,
            "seed": args.seed,
            **options,
            **echo,
        },
        **body,
    }
    if passed is not None:
        report["status"] = "pass" if passed else "fail"
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return EXIT_MISMATCH if passed is False else EXIT_PASS, payload


def _report_path_error(path: str):
    """Why --json-out cannot take a report, found before the command runs, or None.

    Only looks: an existing report is not opened, so a run that then fails
    leaves it whole.  The write at the end can still fail; main reports that
    too.
    """
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        return f"directory {directory!r} is missing or not writable"
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.json_out and (problem := _report_path_error(args.json_out)):
        print(f"cannot write report: {problem}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    try:
        code, payload = _run(args)
    except TruncationCapExceeded as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SuperintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    try:
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wall-time: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
