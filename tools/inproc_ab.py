"""Time one perfbench workload's stream in process on two checkouts, alternating sides.

Usage:
    python3 tools/inproc_ab.py PARENT_DIR CHANGE_DIR --workload eval --seed 4001 --procs 5 --passes 3

Each of --procs rounds starts one process per side, and the side that goes
first alternates from round to round.  A process pins itself to one CPU,
imports its side's src/ and perfbench/workloads.py without writing bytecode,
draws the workload's ops as perfbench/run.py does, prepares them, runs the
workload's warm-up and then times --passes whole passes over the ops, in raw
seconds (not scaled to perfbench's reference computation), timing each op
too.  The ops are the stream a 20 s run.py run times for a workload that
always runs its whole stream (eval), else the fewest whole passes of the
workload's mix that hold at least 100 ops, so a pass has a p90 with ten ops
beyond it.  An op that raises counts as done, as in run.py.

Prints one JSON document: every process's pass times, each side's median
and quartiles over all its passes (statistics.quantiles, inclusive), the
ratio of the change's median to the parent's, and the rounds in which the
change's median pass was the faster.  Each side also gets the median over
its passes of each pass's per-op p50 and p90 latency in ms (from
perfbench/run.py's timing), with the change's ratios and the passes, paired in
order, in which the change's p90 was the lower.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def child(root: str, workload: str, seed: int, passes: int) -> None:
    """One side's process, run in its checkout: print its op count, pass times and per-op p50 and p90 as JSON."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import run
    import workloads

    load = workloads.make(workload, root)
    ops = load.stream_ops(20) if load.whole_stream else load.pass_ops * -(-run.MIN_OPS // load.pass_ops)
    stream = load.specs(seed)
    specs = [next(stream) for _ in range(ops)]
    for spec in specs:
        load.prepare(spec)
    load.warmup(seed)
    times, p50, p90 = [], [], []
    for _ in range(passes):
        latencies = []
        start = time.perf_counter()
        for spec in specs:
            op_start = time.perf_counter()
            try:
                load.run(spec)
            except Exception:  # a raising op is a done op, as in perfbench/run.py
                pass
            latencies.append(time.perf_counter() - op_start)
        times.append(time.perf_counter() - start)
        latency = run.timing(latencies)
        p50.append(latency["latency_ms.p50"])
        p90.append(latency["latency_ms.p90"])
    print(json.dumps({"ops": ops, "times": times, "p50_ms": p50, "p90_ms": p90}))


def run_side(root: str, args) -> dict:
    """One process of one side: {"ops": ..., "times": [...], "p50_ms": [...], "p90_ms": [...]}."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.path.join(root, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    job = [root, args.workload, args.seed, args.passes]
    cmd = [sys.executable, os.path.abspath(__file__), "--child", json.dumps(job)]
    out = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def summary(times: list[list[float]]) -> dict:
    flat = [t for proc in times for t in proc]
    q1, median, q3 = statistics.quantiles(flat, n=4, method="inclusive") if len(flat) > 1 else flat * 3
    return {"s": [[round(t, 4) for t in proc] for proc in times], "median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        child(*json.loads(argv[1]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--procs", type=int, default=5)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent_dir), "change": os.path.abspath(args.change_dir)}
    runs = {"parent": [], "change": []}
    first = []
    for r in range(args.procs):
        sides = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        first.append(sides[0])
        for side in sides:
            runs[side].append(run_side(roots[side], args))
    times = {side: [run["times"] for run in done] for side, done in runs.items()}
    parent, change = summary(times["parent"]), summary(times["change"])
    wins = sum(statistics.median(c) < statistics.median(p) for p, c in zip(times["parent"], times["change"]))
    latency = {}
    for key in ("p50_ms", "p90_ms"):
        flat = {side: [v for run in done for v in run[key]] for side, done in runs.items()}
        parent[key], change[key] = statistics.median(flat["parent"]), statistics.median(flat["change"])
        latency[key] = {
            "ratio": change[key] / parent[key],
            "wins": f"{sum(c < p for p, c in zip(flat['parent'], flat['change']))} of {len(flat['parent'])} passes",
        }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops": runs["parent"][0]["ops"],
        "passes": args.passes,
        "first": first,
        "parent": parent,
        "change": change,
        "ratio": change["median"] / parent["median"],
        "wins": f"{wins} of {args.procs}",
        "latency": latency,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
