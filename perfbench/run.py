"""weightcell benchmark: one command, three workloads, checked outputs.

  python3 perfbench/run.py --workload {cli-oneshot,weight-sweep,group-arith}
                           [--seed N] [--seconds S] [--trace 0|1]

The load is a closed loop with a single client: one op at a time, one
worker process at a time.  A run sets up, then executes whole rounds of ops
(see workloads.py) until the ops have been busy for --seconds (at least one
round, so a round longer than --seconds makes the run one round); each op's
output is checked outside its timed region.  Every child process gets an
address-space and a CPU-time limit, so a runaway op fails and is counted.

--trace 0 prints the end-to-end metrics (set-up timed three times, each
in a fresh process, and the median reported).  Their times are scaled to
the reference speed of speed.py, from a fixed loop timed after each set-up
and each op; the raw times are printed before the result.  --trace 1
makes a separate traced run: the same rounds once untraced and once with
spans around every call into weightcell's public functions (tracer.py),
and prints the per-layer metrics.  The last stdout line is the JSON
result; the lines before it give the tail percentile, the sample count,
the failure ratio and the machine.
Everything a run writes goes under .perfbench-out/ at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKER = HERE / "worker.py"

MODULES = ("__init__", "automata", "cli", "closedforms", "cones", "coxeter", "cyclo", "errors", "limits", "weights")
MEMORY_LIMIT = 3 << 30  # bytes of address space per child process
OP_CPU_LIMIT = 60  # CPU seconds per CLI op
WORKER_CPU_LIMIT = 150  # CPU seconds per worker process
SETUP_REPEATS = 3  # cold set-ups timed per run
STARTUP_REPEATS = 5
CLI_LOOPS_PER_OP = 3  # speed.loop_s() timings after each cli-oneshot op


class Child:
    """A finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv, cwd=None, cpu_limit=WORKER_CPU_LIMIT):
        def limits():
            resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit, cpu_limit))

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        tmp = OUT / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        with open(tmp / "stdout", "w+") as out, open(tmp / "stderr", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, preexec_fn=limits)
            _, status, usage = os.wait4(proc.pid, 0)
            self.seconds = time.perf_counter() - start
            proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024
            out.seek(0)
            err.seek(0)
            self.stdout, self.stderr = out.read(), err.read()

    def json(self):
        if self.rc != 0:
            raise RuntimeError(f"worker failed with exit {self.rc}: {self.stderr[-2000:]}")
        return json.loads(self.stdout.splitlines()[-1])


def worker(*args):
    return Child([sys.executable, str(WORKER), *map(str, args)]).json()


def percentiles(times):
    """Median, and the highest whole percentile with at least ten samples
    above it (nearest rank); with ten samples or fewer, the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    pct = 100 * (n - 10) // n if n > 10 else 100
    rank = max(1, math.ceil(pct * n / 100))
    return statistics.median(ordered), ordered[rank - 1], pct


def source_lines():
    lines = {}
    for module in MODULES:
        path = SRC / "weightcell" / f"{module}.py"
        lines[f"src.lines.{module}"] = path.read_bytes().count(b"\n") if path.exists() else 0
    lines["src.lines.total"] = sum(p.read_bytes().count(b"\n") for p in (SRC / "weightcell").glob("*.py"))
    return lines


def revision():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        import hashlib

        digest = hashlib.sha256()
        for path in sorted((SRC / "weightcell").glob("*.py")):
            digest.update(path.read_bytes())
        return "src-sha256:" + digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# cli-oneshot: the parent is the client, each op a fresh CLI process
# ---------------------------------------------------------------------------


def run_cli(seed, seconds, trace):
    import speed
    import workloads

    workdir = OUT / "cli-oneshot"
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        setup = worker("cli-setup", workdir)
        setups.append(setup)
    golden = json.loads((HERE / "golden.json").read_text()) if seed == workloads.DEFAULT_SEED else None
    refs = workloads.CliReferences(workdir)
    ops, records, peak, busy, round_ = [], [], 0.0, 0.0, 0
    while busy < seconds:
        for op in workloads.cli_ops(seed, round_, setup["cones"]):
            child = Child([sys.executable, "-m", "weightcell.cli", *op["argv"]], cwd=workdir,
                          cpu_limit=OP_CPU_LIMIT)
            try:
                reason = workloads.check_cli(op, child.rc, child.stdout, child.stderr, refs, golden)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            ops.append((op, child))
            records.append({"id": op["id"], "s": child.seconds, "failed": reason,
                            "loop_s": speed.samples(CLI_LOOPS_PER_OP)})
            peak = max(peak, child.peak_rss_mb)
            busy += child.seconds
        round_ += 1
    result = {"setups": setups, "rounds": round_, "ops": records, "peak_rss_mb": peak}
    if trace:
        import tracer

        span_lists, cache, traced = [], {}, []
        for op, child in ops:
            replay = Child([sys.executable, str(WORKER), "cli-replay", str(workdir), op["id"], json.dumps(op["argv"])])
            doc = replay.json()
            same = (doc["rc"], doc["stdout"]) == (child.rc, child.stdout)
            traced.append({"id": op["id"], "s": replay.seconds, "failed": None if same else "replay output differs"})
            span_lists.append(doc["spans"])
            for key, value in doc["cache"].items():
                cache[key] = cache.get(key, 0) + value
        span_lists.append(worker("probe")["spans"])
        result.update(spans=tracer.merge(span_lists), cache=cache, traced_ops=traced)
    return result


# ---------------------------------------------------------------------------
# weight-sweep and group-arith: one long-lived worker is the client
# ---------------------------------------------------------------------------


def run_in_process(name, seed, seconds, trace):
    setups = [] if trace else [worker("setup", name, seed) for _ in range(SETUP_REPEATS - 1)]
    result = worker("run", name, seed, seconds)
    result["setups"] = [*setups, {key: result.pop(key) for key in ("setup_s", "setup_loop_s")}]
    if trace:
        traced = worker("run", name, seed, seconds, "--rounds", result["rounds"], "--trace")
        result.update(spans=traced["spans"], cache=traced["cache"], traced_ops=traced["ops"])
    return result


def main(argv=None):
    sys.path.insert(0, str(SRC))
    import speed
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weightcell" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'weightcell'} not found; run from a weightcell checkout")
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)

    if args.workload == "cli-oneshot":
        result = run_cli(args.seed, args.seconds, args.trace)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, args.trace)
    attempted = result["ops"] + result.get("traced_ops", [])
    failed = [op for op in attempted if op["failed"]]
    times = [op["s"] for op in result["ops"]]
    p50, tail, tail_pct = percentiles(times)
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(), "revision": revision()}

    if args.trace:
        import tracer

        metrics = {
            "cli.startup_s": (statistics.median(
                Child([sys.executable, "-c", "import weightcell.cli"]).seconds for _ in range(STARTUP_REPEATS)), "s"),
            **tracer.layer_metrics(result["spans"]),
            "trace.overhead_ratio": (sum(op["s"] for op in result["traced_ops"]) / sum(times) - 1, "ratio"),
            **{k: (v, "count") for k, v in result["cache"].items()},
            **{k: (v, "count") for k, v in source_lines().items()},
            "run.samples": (len(times), "count"),
            "run.tail_pct": (tail_pct, "pct"),
            "run.failed_ratio": (len(failed) / len(attempted), "ratio"),
            "machine.nproc": (machine["nproc"], "count"),
        }
        with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w") as f:
            f.writelines(json.dumps(span) + "\n" for span in result.pop("spans"))
    else:
        setup_s = statistics.median(speed.scaled_setups(result["setups"]))
        scaled = speed.scaled_ops(result["ops"], result["setups"][-1]["setup_loop_s"])
        for op, s in zip(result["ops"], scaled):
            op["s_scaled"] = s
        scaled_p50, scaled_tail, _ = percentiles(scaled)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "op_s.p50": (scaled_p50, "s"),
            "op_s.tail": (scaled_tail, "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        print(f"speed: end-to-end times are scaled to the loop time {speed.REFERENCE_S * 1e3:g} ms; raw: setup_s "
              f"{statistics.median(s['setup_s'] for s in result['setups']):.6g} s, ops_per_s "
              f"{len(times) / sum(times):.6g} 1/s, op_s.p50 {p50:.6g} s, op_s.tail {tail:.6g} s")
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, machine=machine), indent=1, default=str))

    for op in failed:
        print(f"FAILED {op['id']}: {op['failed']}")
    print(f"workload {args.workload} seed {args.seed}: {result['rounds']} rounds, {len(times)} ops; "
          f"op_s.tail is p{tail_pct} of {len(times)} samples; failed_ratio {len(failed) / len(attempted):.4f}")
    print(f"machine: nproc {machine['nproc']}, python {machine['python']}, revision {machine['revision']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
