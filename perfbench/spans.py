"""In-memory span tracer that wraps superint's layer functions from outside.

Tracing patches module attributes only: every superint module that holds a
reference to a wrapped function gets the wrapper, so calls made inside the
package are seen too.  No file under src/ changes.  Spans stay in a list and
are written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

# Layer -> public names wrapped in that layer.  "Class.method" entries patch
# the class attribute.  Generator functions get one span per resumption.
LAYERS = {
    "precision": [
        "bessel_ratio_raw",
        "bessel_ratio",
        "scaled_bessel_entry_raw",
        "scaled_bessel_entry",
        "det_mpc",
        "determinant",
        "exact_determinant",
        "vandermonde",
    ],
    "partitions": [
        "partitions_of",
        "super_diagrams",
        "sigma_coefficient",
        "hook_product",
        "hook_lengths",
        "standard_tableaux_count",
        "assemble",
        "decompose_superdiagram",
        "norm_alpha",
        "sigma_decomposition_factor",
        "dimension_glm",
    ],
    "schur": [
        "schur_tableaux",
        "schur_bialternant",
        "super_schur_tableaux",
        "supercharacter_amu",
        "lr_coefficient",
    ],
    "grassmann": [
        "GrassmannElement.__mul__",
        "GrassmannElement.conjugate",
        "berezin_integrate",
        "analytic_eval",
        "even_inverse",
        "exp_odd_block",
        "superdeterminant",
        "supertrace",
        "SuperMatrixSym.__matmul__",
    ],
    "bruteforce": [
        "brute_force_ls",
        "brute_force_ls_supermatrix_11",
        "measure_factor",
        "odd_parameter_matrix",
    ],
    "integrals": [
        "ls_closed_form",
        "bk_closed_form",
        "ls_confluent",
        "bk_confluent",
        "berezinian",
        "c_constant",
    ],
    "conjecture": [
        "j0_truncated",
        "jm_truncated",
        "tail_bound",
        "sample_disk",
        "lr_relation_check",
        "f_coefficient",
        "g_coefficient",
        "character_expansion_check",
    ],
    "cli": ["main"],
}

# Per-function metrics reported by name; the product operator is reported as
# grassmann.multiply because every GrassmannElement product goes through it.
FUNCTION_ALIASES = {"grassmann.GrassmannElement.__mul__": "grassmann.multiply"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: bool = False

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "error": self.error,
        }


class Tracer:
    """Collects spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # (z, K, bits) keys j0_truncated has seen, for j0_repeat_ratio
        self.j0_seen: set = set()

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def _close(self, span: Span, error: bool) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole op."""
        s = self._open(name)
        try:
            yield s
        except BaseException:
            self._close(s, True)
            raise
        self._close(s, False)

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                it = fn(*args, **kwargs)
                while True:
                    s = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(s, False)
                        return
                    except BaseException:
                        self._close(s, True)
                        raise
                    self._close(s, False)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(s, True)
                raise
            self._close(s, False)
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYERS entry and rebind each superint reference to it."""
        modules = {layer: importlib.import_module(f"superint.{layer}") for layer in LAYERS}
        package = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "superint" or name.startswith("superint."))
        ]
        for layer, names in LAYERS.items():
            module = modules[layer]
            for qual in names:
                full = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, attr, self.wrap(full, cls.__dict__[attr]))
                    continue
                orig = getattr(module, qual)
                wrapped = self.wrap(full, orig)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self) -> dict:
        """Spans, call counts and counters as plain data, for another process."""
        return {
            "spans": [s.to_json() for s in self.spans],
            "calls": self.calls,
            "counters": self.counters,
        }

    def merge(self, data: dict, parent: int | None) -> None:
        """Add another process's dump; its root spans become children of `parent`."""
        base = len(self.spans)
        for s in data["spans"]:
            own_parent = parent if s["parent"] is None else base + s["parent"]
            self.spans.append(
                Span(base + s["id"], s["name"], s["start"], s["end"], own_parent, self.op, s["error"])
            )
        for name, n in data["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, n in data["counters"].items():
            self.count(name, n)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")


# -- counters computed at the layer boundary from arguments and results --------


def _probe_bessel(tracer, args, kwargs, result):
    tracer.count("precision.series_terms", result[1])


def _probe_det(tracer, args, kwargs, result):
    n = len(args[0] if args else kwargs["rows"])
    tracer.count("precision.det_mpc.flops", n ** 3 / 3)


def _probe_integral(tracer, args, kwargs, result):
    tracer.count(f"integrals.branch_{result.branch}")
    tracer.count("integrals.terms_used", result.diagnostics.get("terms_used", 0))


def _probe_j0(tracer, args, kwargs, result):
    z = args[0] if args else kwargs["z"]
    K = args[1] if len(args) > 1 else kwargs["K"]
    prec = args[2] if len(args) > 2 else kwargs.get("prec")
    zs = tuple(v.to_mpc() if hasattr(v, "to_mpc") else v for v in z)
    key = (zs, K, getattr(prec, "bits", None))
    tracer.count("conjecture.j0_truncated.repeats", key in tracer.j0_seen)
    tracer.j0_seen.add(key)


COUNTERS = (
    "precision.series_terms",
    "precision.det_mpc.flops",
    "integrals.branch_generic",
    "integrals.branch_confluent",
    "integrals.branch_vanishing",
    "integrals.terms_used",
)

PROBES = {
    "precision.bessel_ratio_raw": _probe_bessel,
    "precision.det_mpc": _probe_det,
    "integrals.ls_closed_form": _probe_integral,
    "integrals.bk_closed_form": _probe_integral,
    "integrals.ls_confluent": _probe_integral,
    "integrals.bk_confluent": _probe_integral,
    "conjecture.j0_truncated": _probe_j0,
}


# -- analysis --------------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """<layer>.calls/.self_s/.errors, per-function figures and the counters."""
    selfs = self_times(tracer.spans)
    by_fn_self: dict[str, float] = {}
    by_fn_err: dict[str, int] = {}
    for s in tracer.spans:
        by_fn_self[s.name] = by_fn_self.get(s.name, 0.0) + selfs[s.id]
        by_fn_err[s.name] = by_fn_err.get(s.name, 0) + s.error
    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        full = [f"{layer}.{q}" for q in names]
        out[f"{layer}.calls"] = sum(tracer.calls.get(f, 0) for f in full)
        out[f"{layer}.self_s"] = sum(by_fn_self.get(f, 0.0) for f in full)
        out[f"{layer}.errors"] = sum(by_fn_err.get(f, 0) for f in full)
        for f in full:
            alias = FUNCTION_ALIASES.get(f, f)
            out[f"{alias}.calls"] = tracer.calls.get(f, 0)
            out[f"{alias}.self_s"] = by_fn_self.get(f, 0.0)
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    j0_calls = tracer.calls.get("conjecture.j0_truncated", 0)
    repeats = tracer.counters.get("conjecture.j0_truncated.repeats", 0)
    out["conjecture.j0_repeat_ratio"] = repeats / j0_calls if j0_calls else 0.0
    return out
