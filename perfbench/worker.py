"""One benchmark process: import schubert_atlas, say READY with the import
time, build the workload's inputs, then drive ``cli.main`` pass after pass
and print one JSON line.

Run by ``run.py``; not meant to be started by hand.  Every ``cli.main`` call
builds its own root datum, so each call pays cold caches as a user's CLI
call does, although the interpreter and imports are shared by the passes.

Untraced, the worker samples the host's speed with
``hostspeed.HostSampler`` while it makes its timed calls; the slices are
timed apart from the calls they interrupt, so their cost is taken out.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import HostSampler, host_scale, time_slices  # noqa: E402

IMPORT_SLICES = 50  # host-speed slices timed just before and just after the import


def run_pass(cli, workload, first_outputs, problems, sampler=None, before_call=None):
    """Run one pass, checking every output; return (per call [seconds, [slice
    seconds]], failed calls).  A call's seconds exclude the sampler's slices
    taken during it.  The first pass's outputs are kept in ``first_outputs``
    and later passes must repeat them byte for byte."""
    calls, failed, outputs = [], 0, []
    for index, call in enumerate(workload.calls):
        if before_call is not None:
            before_call(index)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if sampler is not None:
                sampler.take()
            start = time.perf_counter()
            code = cli.main(call.argv)
            seconds = time.perf_counter() - start
        slices = sampler.take() if sampler is not None else []
        calls.append([seconds - sum(slices), slices])
        out = buf.getvalue()
        outputs.append(out)
        problem = f"exit code {code}" if code != 0 else call.check(out)
        if problem is None and first_outputs and out != first_outputs[index]:
            problem = "output differs from the first pass"
        if problem is not None:
            failed += 1
            problems.append(f"{' '.join(call.argv)}: {problem}")
    if workload.pass_digest is not None:
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        if digest != workload.pass_digest:
            failed = len(workload.calls)
            problems.append(f"pass sha256 {digest} != pinned {workload.pass_digest}")
    if not first_outputs:
        first_outputs.extend(outputs)
    return calls, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # Set-up time: the import of schubert_atlas, scaled to nominal host speed
    # by slices timed right around it in this process.  The interpreter's own
    # start-up and the benchmark's imports are not the program's work.
    before = time_slices(IMPORT_SLICES)
    start = time.perf_counter()
    from schubert_atlas import cli

    imported = time.perf_counter() - start
    scale = host_scale(before + time_slices(IMPORT_SLICES))
    print("READY", imported * scale, flush=True)
    if args.setup_only:
        return 0
    workload = workloads.build(args.workload, args.seed)
    sampler = None if args.trace else HostSampler()
    if sampler is not None:
        sampler.start()

    first_outputs, problems = [], []
    result = {"rows_per_pass": workload.rows, "calls_per_pass": len(workload.calls),
              "python": sys.version.split()[0]}
    passes, attempted, failed = [], 0, 0
    began = time.perf_counter()
    while True:
        calls, bad = run_pass(cli, workload, first_outputs, problems, sampler)
        passes.append(calls)
        if len(passes) == 1:
            # a CLI user's process makes one pass at most
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += len(calls)
        failed += bad
        # stop before a pass that would end after --seconds
        if bad or args.trace or time.perf_counter() - began + sum(c[0] for c in calls) > args.seconds:
            break
    if sampler is not None:
        sampler.stop()
    if args.trace and not failed:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        calls, bad = run_pass(cli, workload, first_outputs, problems,
                              before_call=tracer.begin_request)
        attempted += len(calls)
        failed += bad
        result["trace"] = tracer.summary(
            rows=workload.rows,
            untraced_wall_s=sum(c[0] for c in passes[0]),
            traced_wall_s=sum(c[0] for c in calls),
        )
        out_dir = os.path.join(os.path.dirname(HERE), ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(
            os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl.gz"),
            {"workload": args.workload, "seed": args.seed, "python": result["python"]},
        )
    result.update(
        passes=passes,
        attempted=attempted,
        failed=failed,
        problems=problems,
        peak_rss_kb=peak_rss_kb,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
