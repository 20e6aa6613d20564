"""Benchmark runner: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  With --trace 0 it measures the end-to-end
metrics with tracing off; with --trace 1 it runs a fixed set of ops once to
warm up, once untraced and once traced, and reports the per-layer metrics.
Every op's result is checked.  The last stdout line is the JSON result; the
lines before it are a report (environment, sample counts, fail rate and
digest) and one readable line per metric.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import mpmath
from mpmath import mp, mpc, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
# ops per run needed for a p90 with ten samples beyond it
MIN_OPS = 100
SETUP_PROBES = 7
# a run stops even short of MIN_OPS once this much wall time has gone
HARD_LIMIT_S = 150
# The host's speed drifts by up to +-30% over minutes, because other tenants
# share it.  Every time is therefore reported at reference speed: scaled by
# the time of a fixed mpmath computation sampled between ops, against its
# median time on the machine the benchmark was defined on (2-core Xeon,
# Python 3.11.7, mpmath 1.3.0 on its Python backend).  The run and its child
# processes share one CPU, so the samples see the speed the ops see.
REFERENCE_INTERVAL_S = 0.25
REFERENCE_NOMINAL_S = 0.0064


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUPERGROUP_PREC_BITS"}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(root: str, workload: str, seed: int) -> float:
    """Median spawn-to-exit time, at reference speed, of a fresh interpreter
    that imports superint and finishes one warm-up op.  The first probe only
    fills the bytecode caches."""
    from workloads import spawn

    cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup", workload, str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        ref = statistics.median(reference_seconds() for _ in range(3))
        seconds, code, _, err, _ = spawn(cmd, child_env(root), root)
        if code != 0:
            raise RuntimeError(f"setup probe failed with exit {code}: {err}")
        if i:
            times.append(seconds * REFERENCE_NOMINAL_S / ref)
    return statistics.median(times)


def import_times_ms(root: str) -> dict:
    """Cumulative import times of superint and mpmath from -X importtime."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import superint"],
        env=child_env(root), cwd=root, capture_output=True, text=True, check=True, timeout=60,
    )
    found = {}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("superint", "mpmath"):
            found[parts[2].strip()] = int(parts[1]) / 1000
    return {"import.superint_ms": found["superint"], "import.mpmath_ms": found["mpmath"]}


def reference_seconds() -> float:
    """Wall time of a fixed 288-bit complex mpmath computation that runs no
    superint code: a probe of how fast the machine is right now."""
    start = time.perf_counter()
    with mp.workprec(288):
        a, b, acc = mpc(mpf(1) / 3, mpf(2) / 7), mpc(mpf(5) / 11, -mpf(1) / 13), mpc(0)
        for i in range(150):
            acc += a * b
            b = b * a / (i + 1) + a
    return time.perf_counter() - start


def run_ops(workload, specs, seconds, tracer=None):
    """Closed loop over the prepared ops until `seconds` have passed, at least
    MIN_OPS ops are done and the last pass over the workload's mix is
    complete, or until the ops run out.  Whole passes keep the mix of every
    run the same.  Between ops it samples reference_seconds() every
    REFERENCE_INTERVAL_S.
    Returns (spec index, latency, output, start) records, the reference
    samples as (time, seconds) and the loop's wall time."""
    records, refs = [], []
    start = last_ref = time.perf_counter()
    for i, spec in enumerate(specs):
        if not refs or time.perf_counter() - last_ref >= REFERENCE_INTERVAL_S:
            last_ref = time.perf_counter()
            refs.append((last_ref, reference_seconds()))
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(spec)
            else:
                tracer.op = i
                with tracer.span(f"op.{workload.name}"):
                    out = workload.run(spec)
        except Exception as exc:  # a raising op is a failed op, never dropped
            out = exc
        t1 = time.perf_counter()
        records.append((i, t1 - t0, out, t0))
        elapsed = t1 - start
        done = len(records)
        if seconds is not None and elapsed >= seconds and done >= MIN_OPS and done % workload.pass_ops == 0:
            break
        if elapsed >= HARD_LIMIT_S:
            break
    return records, refs, time.perf_counter() - start


def scaled_latencies(records, refs):
    """Each op's latency at reference speed: the raw latency times
    REFERENCE_NOMINAL_S over the median of the (up to) five reference samples
    nearest the op's start."""
    times = [t for t, _ in refs]
    out = []
    for _, latency, _, t0 in records:
        k = bisect.bisect(times, t0)
        local = statistics.median(s for _, s in refs[max(0, k - 3) : k + 2])
        out.append(latency * REFERENCE_NOMINAL_S / local)
    return out


def timing(latencies) -> dict:
    """Closed-loop throughput (one client: ops over their summed latency) and
    the p50 and p90 latencies."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_ms.p50": statistics.median(latencies) * 1e3,
        "latency_ms.p90": percentile(latencies, 90) * 1e3,
    }


def judge(workload, specs, prepared, records):
    """(failed, failed ops whose check says they must pass, canonical outputs)."""
    failed = must_fail = 0
    canon = []
    for i, _, out, _ in records:
        spec, prep = specs[i], prepared[i]
        if isinstance(out, Exception):
            failed += 1
            must_fail += 1
            canon.append(f"{type(out).__name__}: {out}")
            continue
        outcome = workload.check(spec, prep, out)
        if not outcome.ok:
            failed += 1
            must_fail += outcome.must_pass
        canon.append(workload.canonical(out))
    return failed, must_fail, canon


def digest(canon) -> str:
    blob = json.dumps(canon, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def percentile(values, q):
    """q-th percentile (0 < q < 100) with the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    bench_file = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "superint", "__init__.py")):
        print("perfbench: run from the repository root (src/superint not found)", file=sys.stderr)
        return 2
    with open(bench_file, encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workload = workloads.make(args.workload, root, child_env(root))
    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}

    if args.trace:
        count = workload.trace_ops
    else:
        count = workload.stream_ops(args.seconds)
    stream = workload.specs(args.seed)
    specs = [next(stream) for _ in range(count)]
    prepared = [workload.prepare(s) for s in specs]  # oracle values, before timing

    if not args.trace:
        setup_s = setup_seconds(root, args.workload, args.seed)
        workload.warmup(args.seed)
        limit = None if workload.whole_stream else args.seconds
        records, refs, elapsed = run_ops(workload, specs, limit)
        latencies = scaled_latencies(records, refs)
        if args.workload == "cli":
            rss_kb = workload.max_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = timing(latencies)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = rss_kb / 1024
        report["raw"] = {**timing([r[1] for r in records]), "ops_per_s": len(records) / elapsed}
        report["reference_ms"] = statistics.median(s for _, s in refs) * 1e3
        wanted = declared["end_to_end"]
    else:
        # one unmeasured pass first, so that one-time costs (such as mpmath's
        # constants at each new precision) fall on neither measured pass
        run_ops(workload, specs, None)
        plain, _, _ = run_ops(workload, specs, None)
        tracer = spans.Tracer()
        if args.workload == "cli":
            workload.tracer = tracer
        with tracer:
            traced, _, _ = run_ops(workload, specs, None, tracer)
        spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
        values = spans.layer_metrics(tracer)
        values.update(import_times_ms(root))
        # the two passes run seconds apart, so raw times compare directly
        raw_rate = [timing([r[1] for r in recs])["ops_per_s"] for recs in (traced, plain)]
        values["trace.overhead"] = raw_rate[0] / raw_rate[1]
        records = plain + traced
        latencies = traced
        report["spans_file"] = os.path.relpath(spans_path, root)
        report["spans"] = len(tracer.spans)
        wanted = declared["per_layer"]

    failed, must_fail, canon = judge(workload, specs, prepared, records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    report.update(
        {
            "ops": len(records),
            "latency_samples": len(latencies),
            "fail_rate": failed / len(records),
            "failed_must_pass": must_fail,
            "digest_ops": min(workload.trace_ops, len(canon)),
            "digest": digest(canon[: workload.trace_ops]),
        }
    )
    print(json.dumps({"report": report}, sort_keys=True))
    for name, m in metrics.items():
        samples = f" ({len(latencies)} ops)" if name.startswith("latency_ms") else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{samples}")
    print(f"{args.workload} fail_rate = {report['fail_rate']:.6g} ({failed}/{len(records)} ops)")
    result = {
        "correct": must_fail == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
