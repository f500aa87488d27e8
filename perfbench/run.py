"""Benchmark of the schubert-atlas command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts fresh Python
processes (``worker.py``) that import ``schubert_atlas`` from ``src/`` and
call ``schubert_atlas.cli.main`` in a closed loop, one call after another,
checking every output.  With ``--trace 0`` the run times whole passes over
the workload, stopping before a pass that would end after S seconds, and
reports the end-to-end metrics, with call times scaled to nominal host speed
(``hostspeed.py``).  With ``--trace 1`` it runs one untraced and one traced
pass and reports per-layer self times and call counts.  Human-readable lines
go first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory
for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402
from hostspeed import host_scale  # noqa: E402

SETUP_PROBES = 15  # extra set-up-only processes per --trace 0 run
MIN_PASS_SLICES = 20
DEADLINE_S = 170.0


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(args, extra, deadline):
    """Start worker.py and return (process, its set-up seconds from READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    if line[:1] != ["READY"]:
        finish(proc, deadline)
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, float(line[1])


def finish(proc, deadline) -> str:
    """Wait for the worker, killing it at the deadline; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline and was killed")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def pass_scales(passes):
    """host_scale of each pass; a pass too short to hold MIN_PASS_SLICES
    slices gets the whole run's."""
    sampled = [[t for c in p for t in c[1]] for p in passes]
    whole = host_scale([t for s in sampled for t in s])
    return [host_scale(s) if len(s) >= MIN_PASS_SLICES else whole for s in sampled]


def end_to_end(res: dict, setups) -> dict:
    """The metrics.  Call times are scaled to nominal host speed, each by its
    pass's host_scale; the workers scaled their set-up times themselves."""
    scales = pass_scales(res["passes"])
    passes = [[c[0] * scale for c in p] for p, scale in zip(res["passes"], scales)]
    wall = statistics.median(sum(p) for p in passes)
    latency = statistics.median(statistics.median(p) for p in passes)
    return {
        "wall_s": (wall, "s"),
        "rows_per_s": (res["rows_per_pass"] / wall, "1/s"),
        "latency_p50_ms": (1000.0 * latency, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_row")):
        return "ratio"
    return "count"


def print_trace_report(m: dict) -> None:
    wall = m["trace.wall_s"]
    print(f"traced wall {wall:.3f} s over {m['trace.spans']:.0f} spans; "
          f"overhead {m['trace.overhead_ratio']:.2f}x "
          f"(traced / untraced {m['trace.untraced_wall_s']:.3f} s)")
    for layer in LAYERS:
        print(f"  {layer + '.self_s':<22} {m[layer + '.self_s']:9.3f} s "
              f"{100 * m[layer + '.self_s'] / wall:5.1f}%")
    for name in sorted(k for k in m if k.endswith(".self_s") and k.count(".") == 2):
        calls = m[name[: -len("self_s")] + "calls"]
        if calls:
            print(f"  {name:<44} {m[name]:9.3f} s {calls:9.0f} calls")
    rows = m["output_rows"]
    print(f"weyl.element_from_word.calls_per_row = {m['weyl.element_from_word.calls_per_row']:.3f}"
          f" ({m['weyl.element_from_word.calls']:.0f} calls / {rows:.0f} rows)")
    print(f"weyl.canonical_reduced_word.distinct_ratio = "
          f"{m['weyl.canonical_reduced_word.distinct_ratio']:.3f}"
          f" ({m['weyl.canonical_reduced_word.distinct']:.0f} distinct w.matrix"
          f" / {m['weyl.canonical_reduced_word.calls']:.0f} calls)")
    print(f"exactlinalg.invert_unimodular.calls_per_row = "
          f"{m['exactlinalg.invert_unimodular.calls_per_row']:.3f}"
          f" ({m['exactlinalg.invert_unimodular.calls']:.0f} calls / {rows:.0f} rows)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "schubert_atlas", "cli.py")):
        print(f"error: no schubert_atlas sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup = start_worker(args, ["--setup-only"], deadline)
                finish(proc, deadline)
                setups.append(setup)
        proc, setup = start_worker(args, [], deadline)
        setups.append(setup)
        res = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = {"python": res["python"], "git_sha": git_sha(ROOT), "nproc": len(os.sched_getaffinity(0)),
           "workload": args.workload, "seed": args.seed}
    print("env " + json.dumps(env))
    for problem in res["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    attempted, failed = res["attempted"], res["failed"]
    print(f"error_rate = {failed / attempted:.4f} ({failed} of {attempted} calls failed)")

    metrics = {}
    if args.trace:
        if "trace" in res:
            print_trace_report(res["trace"])
            metrics = {k: (v, per_layer_unit(k)) for k, v in res["trace"].items()}
    elif not failed:
        print(f"{res['calls_per_pass']} calls and {res['rows_per_pass']} rows per pass; "
              "measured pass seconds " + " ".join(f"{sum(c[0] for c in p):.3f}" for p in res["passes"])
              + "; host scale " + " ".join(f"{s:.3f}" for s in pass_scales(res["passes"]))
              + "; scaled set-up seconds " + " ".join(f"{r:.4f}" for r in setups))
        metrics = end_to_end(res, setups)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
