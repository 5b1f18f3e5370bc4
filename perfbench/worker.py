"""Worker processes of the benchmark; run.py starts them, one at a time.

  worker.py setup WORKLOAD SEED             set up once (cold), then exit
  worker.py run WORKLOAD SEED SECONDS [--rounds N] [--trace]
                                            set up, run whole rounds of ops
  worker.py cli-setup DIR                   write the cli-oneshot inputs
  worker.py cli-replay DIR OP_ID ARGV_JSON  one CLI op in process, traced
  worker.py probe                           the traced layer probe

Each prints one JSON object on stdout.  Setup times start before weightcell
is imported, so they include the import.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Stop starting rounds after this much wall time, whatever --seconds says.
DEADLINE_S = 120.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name, seed, seconds, rounds, trace):
    rec = tracer.Tracer() if trace else None
    if rec:
        import weightcell  # noqa: F401  (install needs the modules loaded)

        rec.install()
        rec.op = "setup"
    workload = workloads.IN_PROCESS[name](seed)
    workload.setup()
    setup_s = time.perf_counter() - T0
    setup_loops, records, busy, round_ = speed.samples(), [], 0.0, 0
    while (round_ < rounds) if rounds else (busy < seconds and time.perf_counter() - T0 < DEADLINE_S):
        for op_id, call, check in workload.ops(round_):
            if rec:
                rec.op = op_id
            start = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, exc
            elapsed = time.perf_counter() - start
            if rec:
                rec.op = None
            try:
                reason = check(result, error)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            records.append({"id": op_id, "s": elapsed, "failed": reason, "loop_s": [speed.loop_s()]})
            busy += elapsed
        round_ += 1
    out = {"setup_s": setup_s, "setup_loop_s": setup_loops, "rounds": round_, "ops": records,
           "peak_rss_mb": _peak_rss_mb()}
    if rec:
        out["cache"] = tracer.cache_counts()
        rec.op = "probe"
        workloads.probe()
        rec.op = None
        out["spans"] = rec.spans
    return out


def cli_replay(workdir, op_id, argv):
    from weightcell import cli

    rec = tracer.Tracer()
    rec.install()
    stdout, stderr = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rec.op = op_id
        rc = cli.main(argv)
        rec.op = None
    return {"rc": rc, "stdout": stdout.getvalue(), "cache": tracer.cache_counts(), "spans": rec.spans}


def main(argv=None):
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=list(workloads.IN_PROCESS))
    p.add_argument("seed", type=int)
    p = sub.add_parser("run")
    p.add_argument("workload", choices=list(workloads.IN_PROCESS))
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cli-setup")
    p.add_argument("dir")
    p = sub.add_parser("cli-replay")
    p.add_argument("dir")
    p.add_argument("op_id")
    p.add_argument("argv")
    sub.add_parser("probe")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        workloads.IN_PROCESS[args.workload](args.seed).setup()
        out = {"setup_s": time.perf_counter() - T0, "setup_loop_s": speed.samples()}
    elif args.mode == "run":
        out = run(args.workload, args.seed, args.seconds, args.rounds, args.trace)
    elif args.mode == "cli-setup":
        cones = workloads.cli_setup(Path(args.dir))
        out = {"setup_s": time.perf_counter() - T0, "cones": cones, "setup_loop_s": speed.samples()}
    elif args.mode == "cli-replay":
        out = cli_replay(args.dir, args.op_id, json.loads(args.argv))
    else:
        import weightcell  # noqa: F401

        rec = tracer.Tracer()
        rec.install()
        rec.op = "probe"
        workloads.probe()
        out = {"spans": rec.spans}
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
