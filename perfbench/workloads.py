"""The four benchmark workloads: seeded op streams, the ops, and their checks.

An op spec is plain data drawn from the workload seed.  `prepare` turns a spec
into whatever its check needs (run before timing), `run` is the timed call
into superint, and `check` judges the output.  `canonical` renders an output
for the digest, so a change that alters the numbers shows there.

The superint functions are always looked up through their modules at call
time, so the tracer's module patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from superint import cli, conjecture, integrals, partitions, schur
from superint import bruteforce
from superint.precision import BigComplex, Precision

import evaloracle

HERE = os.path.dirname(os.path.abspath(__file__))

# Results of eval must agree with the oracle to their tagged bits less this.
SLACK_BITS = 8
# An eval op whose inputs cancel at most this many bits (kernel series plus
# determinant) must pass; the library carries 32 guard bits, so beyond this
# a miss is the documented fixed-guard cancellation defect.
CONDITIONED_LOSS_BITS = 24


def spawn(cmd, env, cwd):
    """Run a process to exit: (seconds from spawn to exit, exit code, stdout,
    stderr, peak resident KB).  os.wait4 returns the moment the child exits,
    where Popen.wait with a timeout polls in steps of up to 50 ms."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    # outputs are small, far below a pipe buffer, so reading in turn cannot block
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.stdout.close()
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out.decode(), err.decode(), usage.ru_maxrss


@dataclass(frozen=True)
class Outcome:
    """What a check concluded about one op."""

    ok: bool
    must_pass: bool = True


def _rng(seed: int, *stream) -> random.Random:
    return random.Random(repr((seed,) + stream))


# -- grid: one J0 = Jm sample, as criterion 5 ----------------------------------

GRID_CELLS = [(N, m) for N in range(2, 9) for m in range(1, N + 1)]
GRID_RADIUS = 2
GRID_K = 64
GRID_PREC = Precision(bits=256)


class Grid:
    name = "grid"
    # a pass is one sweep over every (N, m) cell; the traced run takes one
    pass_ops = trace_ops = len(GRID_CELLS)
    whole_stream = False

    def stream_ops(self, seconds: int) -> int:
        return 100 * seconds  # ops take 10-130 ms

    def specs(self, seed: int):
        sweep = 0
        while True:
            cells = list(GRID_CELLS)
            _rng(seed, "grid", sweep).shuffle(cells)
            for N, m in cells:
                yield {"seed": seed, "sample": sweep, "N": N, "m": m}
            sweep += 1

    def prepare(self, spec):
        return None

    def run(self, spec):
        prec = GRID_PREC
        N, m = spec["N"], spec["m"]
        # sample_disk ignores m, so every m of one N shares z, as in criterion 5
        z = [
            conjecture.sample_disk(spec["seed"], spec["sample"], c, GRID_RADIUS, prec.bits)
            for c in range(N)
        ]
        j0 = conjecture.j0_truncated(z, GRID_K, prec)
        jm = conjecture.jm_truncated(z, m, GRID_K, prec)
        bound = conjecture.tail_bound(N, GRID_RADIUS, GRID_K, prec)
        with mp.workprec(prec.work_bits):
            rdiff = abs(j0.to_mpc() - jm.to_mpc()) / max(abs(j0.to_mpc()), mpf(2) ** -prec.bits)
            tol = 2 * bound / max(abs(j0.to_mpc()), mpf(2) ** -prec.bits)
            tol += mpf(2) ** -(prec.bits - 48)
            ok = bool(rdiff <= tol and rdiff < mpf(10) ** -40)
        return {"j0": j0.to_json(), "jm": jm.to_json(), "pass": ok}

    def check(self, spec, prepared, output) -> Outcome:
        return Outcome(output["pass"])

    def canonical(self, output):
        return output

    def warmup(self, seed: int):
        self.run({"seed": seed, "sample": 0, "N": 2, "m": 1})


# -- eval: the library user's closed-form calls --------------------------------

EVAL_BETA = 0.5
EVAL_BITS = (128, 256, 512, 1024)
# Every (bits, decade) pair, decade d meaning |beta^2 lambda^2| in
# [10^d, 10^(d+1)], with the size m+n of its ls and bk request.  Sizes are
# weighted toward small ones, and the largest determinants sit on the
# shortest series: a 12x12 ls at 1024 bits and |w| = 1e4 alone takes 4 s,
# more than a fifth of a run.  One block is every row once as ls and once as
# bk; the rows and branches are fixed, so every seed runs the same mix and
# the seed draws the values, phases, (m|n) splits and order.
EVAL_ROWS = (
    # bits, decade, ls size, bk size
    (128, -2, 12, 12),
    (128, -1, 10, 11),
    (256, -2, 8, 9),
    (128, 0, 7, 8),
    (128, 1, 6, 7),
    (256, -1, 5, 6),
    (256, 0, 4, 5),
    (128, 2, 4, 5),
    (512, -2, 3, 4),
    (256, 1, 3, 4),
    (512, -1, 3, 3),
    (512, 0, 2, 3),
    (256, 2, 2, 3),
    (128, 3, 2, 2),
    (512, 1, 2, 2),
    (1024, -2, 1, 2),
    (1024, -1, 1, 2),
    (256, 3, 1, 2),
    (512, 2, 1, 1),
    (1024, 0, 1, 1),
    (1024, 1, 1, 1),
    (512, 3, 1, 1),
    (1024, 2, 1, 1),
    (1024, 3, 1, 1),
)
EVAL_BLOCK = 2 * len(EVAL_ROWS)


def _eval_slot(slot: int):
    row, kind_index = divmod(slot, 2)
    bits, decade, ls_size, bk_size = EVAL_ROWS[row]
    kind, size = ("ls", ls_size) if kind_index == 0 else ("bk", bk_size)
    branch = "generic"
    if size >= 2 and slot % 3 == 1:
        branch = "confluent"
    elif size >= 2 and slot % 5 == 3:
        branch = "vanishing"
    return kind, size, bits, decade, branch


def _draw_values(rng, count, decade, root):
    """Complex squared eigenvalues with |beta^2 x| (or |beta x| squared) in the decade."""
    out = []
    for _ in range(count):
        mag = 10 ** rng.uniform(decade, decade + 1)
        if root:
            mag = math.sqrt(mag)
        phase = rng.uniform(-math.pi, math.pi)
        v = complex(mag * math.cos(phase), mag * math.sin(phase))
        out.append(v / EVAL_BETA ** (1 if root else 2))
    return out


def _split(rng, size, branch):
    if branch == "vanishing":
        m = rng.randint(1, size - 1)  # a boson-fermion coincidence needs both sectors
    elif branch == "confluent" and size == 2:
        m = rng.choice([0, 2])  # a repeat needs two values in one sector
    else:
        m = rng.randint(0, size)
    return m, size - m


def _apply_branch(rng, bos, ferm, branch):
    if branch == "confluent":
        sector = bos if len(bos) >= 2 and (len(ferm) < 2 or rng.random() < 0.5) else ferm
        sector[1] = sector[0]
    elif branch == "vanishing":
        ferm[0] = bos[0]


class Eval:
    name = "eval"
    pass_ops = trace_ops = EVAL_BLOCK
    # Some eval ops fail at the parent commit, so a run always takes its whole
    # stream: a run that stopped on the clock would attempt, and fail, a
    # different set of ops whenever the host's speed changed.
    whole_stream = True

    def stream_ops(self, seconds: int) -> int:
        # Oracle values are computed for every prepared op, so the stream is
        # sized for the parent commit, where a block takes about 2 s.  A
        # faster program finishes the stream before --seconds, and its run is
        # shorter.
        return EVAL_BLOCK * math.ceil(seconds / 2)

    def specs(self, seed: int):
        index = 0
        while True:
            block, slot_pos = divmod(index, EVAL_BLOCK)
            if slot_pos == 0:
                order = list(range(EVAL_BLOCK))
                _rng(seed, "eval-order", block).shuffle(order)
            slot = order[slot_pos]
            yield self._spec(seed, block, slot)
            index += 1

    def _spec(self, seed, block, slot):
        kind, size, bits, decade, branch = _eval_slot(slot)
        rng = _rng(seed, "eval", block, slot)
        m, n = _split(rng, size, branch)
        spec = {"kind": kind, "bits": bits, "branch": branch, "m": m, "n": n}
        if kind == "ls":
            bos = _draw_values(rng, m, decade, root=False)
            ferm = _draw_values(rng, n, decade, root=False)
            _apply_branch(rng, bos, ferm, branch)
            spec["lam"] = (bos, ferm)
        else:
            lam = [_draw_values(rng, m, decade, True), _draw_values(rng, n, decade, True)]
            mu = [_draw_values(rng, m, decade, True), _draw_values(rng, n, decade, True)]
            _apply_branch(rng, *(lam if rng.random() < 0.5 else mu), branch)
            spec["lam"], spec["mu"] = tuple(lam), tuple(mu)
        return spec

    def prepare(self, spec):
        if spec["kind"] == "ls":
            return evaloracle.ls_reference(*spec["lam"], EVAL_BETA, spec["bits"])
        return evaloracle.bk_reference(*spec["lam"], *spec["mu"], EVAL_BETA, spec["bits"])

    @staticmethod
    def _ev(pair, bits):
        bos, ferm = pair
        return integrals.SuperEigenvalues(
            tuple(BigComplex(v, bits=bits) for v in bos),
            tuple(BigComplex(v, bits=bits) for v in ferm),
            BigComplex(EVAL_BETA, bits=bits),
        )

    def run(self, spec):
        bits = spec["bits"]
        prec = Precision(bits=bits)
        if spec["kind"] == "ls":
            return integrals.ls_closed_form(self._ev(spec["lam"], bits), prec)
        return integrals.bk_closed_form(self._ev(spec["lam"], bits), self._ev(spec["mu"], bits), prec)

    def check(self, spec, ref, result) -> Outcome:
        must_pass = ref.lost_bits <= CONDITIONED_LOSS_BITS
        if result.branch != spec["branch"]:
            return Outcome(False, must_pass)
        if spec["branch"] == "vanishing":
            return Outcome(result.value.is_zero, must_pass)
        with mp.workprec(spec["bits"] + evaloracle.ORACLE_EXTRA_BITS):
            err = abs(result.value.to_mpc() - ref.value) / abs(ref.value)
            return Outcome(bool(err <= mpf(2) ** -(spec["bits"] - SLACK_BITS)), must_pass)

    def canonical(self, result):
        return result.to_json()

    def warmup(self, seed: int):
        # a one-eigenvalue ls request at 512 bits: one short series
        self.run(self._spec(seed, 0, 2 * EVAL_ROWS.index((512, 2, 1, 1))))


# -- oracle: exact identities and explicit Haar integration ---------------------

# kind -> count per block of 20.  Ranked by cost, hook checks and LR sweeps
# make up 35% of ops and supercharacter checks the next 40%, so the p50 latency
# lands well inside the supercharacter checks; the (2|1) Haar points are the
# top 15%, so the p90 latency lands inside them.
ORACLE_MIX = {"haar11": 2, "haar21": 3, "supercharacter": 8, "lr": 4, "hook": 3}
ORACLE_PREC = Precision(bits=256)


def _positive_fraction(rng):
    return Fraction(rng.randint(1, 40), rng.randint(2, 38))


def _nonzero_fraction(rng):
    num = 0
    while num == 0:
        num = rng.randint(-40, 40)
    return Fraction(num, rng.randint(2, 38))


class Oracle:
    name = "oracle"
    pass_ops = sum(ORACLE_MIX.values())
    # five blocks, so each traced-run pass lasts about a second
    trace_ops = 5 * pass_ops
    whole_stream = False

    def stream_ops(self, seconds: int) -> int:
        return 1000 * seconds  # a block of 20 ops takes about 0.2 s

    def __init__(self):
        self._diagrams = {
            (m, n): list(partitions.super_diagrams(m, n, 6)) for m in (1, 2) for n in (1, 2)
        }
        self._shapes = [t for b in range(13) for t in partitions.partitions_of(b)]

    def specs(self, seed: int):
        block = 0
        while True:
            kinds = [k for k, c in ORACLE_MIX.items() for _ in range(c)]
            _rng(seed, "oracle-order", block).shuffle(kinds)
            for pos, kind in enumerate(kinds):
                yield self._spec(_rng(seed, "oracle", block, pos), kind)
            block += 1

    def _spec(self, rng, kind):
        if kind in ("haar11", "haar21"):
            m, n = (1, 1) if kind == "haar11" else (2, 1)
            while True:
                a = [_positive_fraction(rng) for _ in range(m + n)]
                b = [_positive_fraction(rng) for _ in range(m + n)]
                prods = [x * y for x, y in zip(a, b)]
                if len(set(prods)) == m + n:
                    return {"kind": kind, "m": m, "n": n, "a": a, "b": b}
        if kind == "supercharacter":
            m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
            sd = rng.choice(self._diagrams[(m, n)])
            bos = [_nonzero_fraction(rng) for _ in range(m)]
            ferm = [_nonzero_fraction(rng) for _ in range(n)]
            return {"kind": kind, "sd": sd, "bos": bos, "ferm": ferm}
        if kind == "lr":
            m, n = rng.choice([(1, 1), (2, 1), (2, 2)])
            total = rng.randint(0, 8)
            psize = rng.randint(0, total)
            p = rng.choice(list(partitions.partitions_of(psize, max_rows=m)))
            q = rng.choice(list(partitions.partitions_of(total - psize, max_rows=n)))
            return {"kind": kind, "p": p, "q": q, "m": m, "n": n}
        return {"kind": "hook", "t": rng.choice(self._shapes)}

    def prepare(self, spec):
        return None

    def run(self, spec):
        kind = spec["kind"]
        if kind in ("haar11", "haar21"):
            prec = ORACLE_PREC
            beta = BigComplex(Fraction(1, 2), bits=prec.bits)
            m, n, a, b = spec["m"], spec["n"], spec["a"], spec["b"]
            bf = bruteforce.brute_force_ls(m, n, a, b, beta, prec)
            prods = [x * y for x, y in zip(a, b)]
            ev = integrals.SuperEigenvalues(tuple(prods[:m]), tuple(prods[m:]), beta)
            cf = integrals.ls_closed_form(ev, prec).value
            with mp.workprec(prec.work_bits):
                rel = abs(bf.to_mpc() - cf.to_mpc()) / abs(cf.to_mpc())
                return {"bf": bf.to_json(), "cf": cf.to_json(), "pass": bool(rel <= mpf(2) ** -200)}
        if kind == "supercharacter":
            sd, bos, ferm = spec["sd"], spec["bos"], spec["ferm"]
            want = schur.super_schur_tableaux(partitions.assemble(sd), bos, ferm)
            got = schur.supercharacter_amu(sd, bos, ferm)
            return {"value": str(got), "pass": got == want}
        if kind == "lr":
            ok, residual = conjecture.lr_relation_check(spec["p"], spec["q"], spec["m"], spec["n"])
            return {"residual": str(residual), "pass": ok}
        t = spec["t"]
        lhs = partitions.sigma_coefficient(t) * partitions.hook_product(t)
        return {"value": lhs, "pass": lhs == math.factorial(t.size)}

    def check(self, spec, prepared, output) -> Outcome:
        return Outcome(output["pass"])

    def canonical(self, output):
        return output

    def warmup(self, seed: int):
        self.run(self._spec(_rng(seed, "warmup"), "haar11"))


# -- cli: one `python -m superint` process per op --------------------------------


def _cli_value(rng):
    return {"re": str(rng.randint(1, 99) / 100), "im": str(rng.randint(-99, 99) / 100)}


class Cli:
    name = "cli"
    pass_ops = 1
    trace_ops = 20
    whole_stream = False

    def __init__(self, root: str, env: dict):
        self.root = root
        self.env = env
        # peak resident memory over the op processes, from wait4
        self.max_rss_kb = 0
        # when set, each CLI call runs under the tracer in child.py and its
        # spans are merged into this tracer below the op's span
        self.tracer = None

    def stream_ops(self, seconds: int) -> int:
        return 25 * seconds  # a call takes about 0.25 s

    def specs(self, seed: int):
        index = 0
        while True:
            rng = _rng(seed, "cli", index)
            kind = "ls-eval" if index % 2 == 0 else "bk-eval"
            m, n = rng.choice([(1, 0), (1, 1), (2, 1), (1, 2)])

            def vals(k):
                return [_cli_value(rng) for _ in range(k)]

            if kind == "ls-eval":
                doc = {"beta": {"re": "0.5"}, "bosonic": vals(m), "fermionic": vals(n)}
            else:
                doc = {
                    "beta": {"re": "0.5"},
                    "lambda": {"bosonic": vals(m), "fermionic": vals(n)},
                    "mu": {"bosonic": vals(m), "fermionic": vals(n)},
                }
            yield {"command": kind, "input": json.dumps(doc, sort_keys=True)}
            index += 1

    def prepare(self, spec):
        """The same input evaluated in-process: the report's result object."""
        doc = json.loads(spec["input"])
        prec = Precision(bits=256)
        if spec["command"] == "ls-eval":
            result = integrals.ls_closed_form(integrals.SuperEigenvalues.from_json(doc), prec)
        else:
            lam = integrals.SuperEigenvalues.from_json({**doc["lambda"], "beta": doc["beta"]})
            mu = integrals.SuperEigenvalues.from_json({**doc["mu"], "beta": doc["beta"]})
            result = integrals.bk_closed_form(lam, mu, prec)
        return result.to_json()

    def run(self, spec):
        argv = [spec["command"], "--input-json", spec["input"]]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "superint"] + argv
        else:
            trace_file = os.path.join(HERE, "out", f"cli-{os.getpid()}.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", trace_file] + argv
        _, code, out, err, rss_kb = spawn(cmd, self.env, self.root)
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        if self.tracer is not None:
            with open(trace_file, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh), parent=self.tracer.current())
            os.remove(trace_file)
        return {"exit": code, "stdout": out, "stderr": err}

    def check(self, spec, expected, output) -> Outcome:
        if output["exit"] != 0:
            return Outcome(False)
        try:
            report = json.loads(output["stdout"])
        except json.JSONDecodeError:
            return Outcome(False)
        return Outcome(report.get("result") == expected)

    def canonical(self, output):
        return [output["exit"], output["stdout"]]

    def warmup(self, seed: int):
        spec = next(self.specs(seed))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([spec["command"], "--input-json", spec["input"]])


def make(name: str, root: str, env: dict | None = None):
    if name == "grid":
        return Grid()
    if name == "eval":
        return Eval()
    if name == "oracle":
        return Oracle()
    if name == "cli":
        return Cli(root, env if env is not None else dict(os.environ))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid", "eval", "oracle", "cli")
