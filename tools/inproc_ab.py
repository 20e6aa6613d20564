"""Time one perfbench workload's stream in process on two checkouts, alternating sides.

Usage:
    python3 tools/inproc_ab.py PARENT_DIR CHANGE_DIR --workload eval --seed 4001 --procs 5 --passes 3

Each of --procs rounds starts one process per side, and the side that goes
first alternates from round to round.  A process pins itself to one CPU,
imports its side's src/ and perfbench/workloads.py without writing bytecode,
draws the workload's ops as perfbench/run.py does, prepares them, runs the
workload's warm-up and then times --passes whole passes over the ops, in raw
seconds (not scaled to perfbench's reference computation).  The ops are the
stream a 20 s run.py run times for a workload that always runs its whole
stream (eval), else one pass over the workload's mix.  An op that raises
counts as done, as in run.py.

Prints one JSON document: every process's pass times, each side's median
and quartiles over all its passes (statistics.quantiles, inclusive), the
ratio of the change's median to the parent's, and the rounds in which the
change's median pass was the faster.  Only the standard library is used.
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
    """One side's process, run in its checkout: print its op count and pass times as JSON."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads

    load = workloads.make(workload, root)
    ops = load.stream_ops(20) if load.whole_stream else load.pass_ops
    stream = load.specs(seed)
    specs = [next(stream) for _ in range(ops)]
    for spec in specs:
        load.prepare(spec)
    load.warmup(seed)
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        for spec in specs:
            try:
                load.run(spec)
            except Exception:  # a raising op is a done op, as in perfbench/run.py
                pass
        times.append(time.perf_counter() - start)
    print(json.dumps({"ops": ops, "times": times}))


def run_side(root: str, args) -> dict:
    """One process of one side: {"ops": ..., "times": [...]}."""
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
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
