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
from dataclasses import dataclass, field

from . import __version__, acceptance
from .errors import InputFormatError, SuperintError, TruncationCapExceeded
from .integrals import SuperEigenvalues, bk_closed_form, ls_closed_form
from .precision import DEFAULT_BITS, DEFAULT_TRUNCATION_CAP, Precision

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

PREC_BITS_ENV = "SUPERGROUP_PREC_BITS"


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, numeric settings, input and output."""

    command: str
    precision_bits: int = DEFAULT_BITS
    truncation_cap: int = DEFAULT_TRUNCATION_CAP
    seed: int = acceptance.DEFAULT_SEED
    jobs: int = 1
    input_path: str | None = None
    input_inline: str | None = None
    json_out: str | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.precision_bits < 64:
            raise ValueError("precision must be at least 64 bits")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        known = {"command", "prec_bits", "trunc_cap", "seed", "jobs", "input", "input_json", "json_out"}
        options = {k: v for k, v in vars(args).items() if k not in known}
        return cls(
            command=args.command,
            precision_bits=args.prec_bits if args.prec_bits is not None else _default_prec_bits(),
            truncation_cap=args.trunc_cap,
            seed=args.seed,
            jobs=getattr(args, "jobs", 1),
            input_path=getattr(args, "input", None),
            input_inline=getattr(args, "input_json", None),
            json_out=args.json_out,
            options=options,
        )

    @property
    def precision(self) -> Precision:
        return Precision(bits=self.precision_bits, truncation_cap=self.truncation_cap)


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


def _load_input(config: RunConfig) -> dict:
    if config.input_inline is not None:
        text = config.input_inline
    elif config.input_path is not None:
        try:
            with open(config.input_path, "r", encoding="utf-8") as fh:
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


def _ls_eval(config: RunConfig):
    doc = _load_input(config)
    try:
        ev = SuperEigenvalues.from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputFormatError(f"bad eigenvalue document: {exc}") from exc
    result = ls_closed_form(ev, config.precision)
    return None, {"result": result.to_json()}, {"input": ev.to_json()}


def _bk_eval(config: RunConfig):
    doc = _load_input(config)
    try:
        beta = doc["beta"]
        lam = SuperEigenvalues.from_json({**doc["lambda"], "beta": beta})
        mu = SuperEigenvalues.from_json({**doc["mu"], "beta": beta})
    except (KeyError, ValueError, TypeError) as exc:
        raise InputFormatError(f"bad eigenvalue document: {exc}") from exc
    result = bk_closed_form(lam, mu, config.precision)
    return None, {"result": result.to_json()}, {"input": {"lambda": lam.to_json(), "mu": mu.to_json()}}


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, its own flags and what it runs.

    `run(config)` returns (passed, report body, config echo beyond the
    command's own flags); passed is None for an evaluator, whose report
    carries no status.
    """

    help: str
    flags: dict
    run: object


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
    "--trunc-cap": {"type": int, "default": DEFAULT_TRUNCATION_CAP},
    "--seed": {"type": int, "default": acceptance.DEFAULT_SEED},
    "--jobs": {"type": int, "default": 1},
    "--json-out": {"type": str, "default": None, "help": "report path (default: stdout)"},
}


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
        lambda c: acceptance.conjecture_check(c.seed, c.precision, c.jobs, **c.options),
    ),
    "lr-check": Command(
        "exact coefficient recursion sweep",
        _ints(m=2, n=2, max_boxes=8),
        lambda c: acceptance.lr_check(**c.options),
    ),
    "strninxi-check": Command(
        "supertrace power expansion check",
        _ints(m=2, n=2, max_boxes=6),
        lambda c: acceptance.supertrace_check(c.seed, **c.options),
    ),
    "appendix-e-verify": Command(
        "explicit Haar integration vs closed form",
        {},
        lambda c: acceptance.haar_check(c.seed, c.precision),
    ),
    "theorems-check": Command(
        "rearrangement/determinant identity checks",
        _ints(N=5),
        lambda c: acceptance.theorems_check(c.seed, **c.options),
    ),
    "selftest": Command(
        "run the full acceptance suite",
        {},
        lambda c: acceptance.selftest(c.seed, c.precision, c.jobs),
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


def _run(config: RunConfig) -> int:
    """Run the command and write its report: stdout, or the --json-out file."""
    passed, body, echo = COMMANDS[config.command].run(config)
    report = {
        "schema": "superint-report/1",
        "tool": {"name": "superint", "version": __version__},
        "command": config.command,
        "config": {
            "precision_bits": config.precision_bits,
            "truncation_cap": config.truncation_cap,
            "seed": config.seed,
            **config.options,
            **echo,
        },
        **body,
    }
    if passed is not None:
        report["status"] = "pass" if passed else "fail"
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if config.json_out:
        with open(config.json_out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_MISMATCH if passed is False else EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return exc.code if exc.code is not None else EXIT_USAGE
    start = time.monotonic()
    try:
        config = RunConfig.from_args(args)
        code = _run(config)
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
    print(f"wall-time: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
