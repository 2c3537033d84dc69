"""Benchmark entry point.

    python3 benchmarks/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
(no build or install step).  Every measurement runs in a fresh worker
process (worker.py), one after the other, single-threaded, closed loop.

--trace 0  four set-up-only workers, then one timed worker; prints the
           end-to-end metrics (items_per_s, setup_s, peak_rss_mb, ok_ratio).
--trace 1  one untraced fixed pass, the same pass traced, then the
           coverage probe; prints the per-layer metrics.

The last stdout line is the result object; the line before it is the
record (machine, commit, input digest, raw figures, errors, coverage).
Exit code 2, with no result line, when the checkout has no ``src/alphacf``
or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("figures", "corpus-gate", "irrational-orbits")
SETUP_WORKERS = 4      # plus the timed worker: setup_s is a median of 5
DEADLINE_S = 170.0     # whole run, under the 180 s limit


class BenchError(Exception):
    pass


def worker(mode: str, args, started: float, spans: str = None) -> dict:
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}-{mode}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, WORKER, "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/alphacf/*.py: names the code even without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "alphacf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_UNITS = {"calls": "count", "self_s": "s", "digits": "count",
               "max_bits": "bits", "q_bits_max": "bits",
               "beta_bits_max": "bits", "converged_ratio": "ratio"}


def end_to_end(args, started: float, record: dict) -> dict:
    setups = [worker("setup", args, started)["setup_s"]
              for _ in range(SETUP_WORKERS)]
    run = worker("measure", args, started)
    setups.append(run["setup_s"])
    record["run"] = run
    record["setup_samples_s"] = setups
    attempted, failed = run["attempted"], run["failed"]
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            "items_per_s": metric(run["items_per_s"], "1/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
            "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        },
    }


def per_layer(args, started: float, record: dict) -> dict:
    plain = worker("pass", args, started)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    traced = worker("trace", args, started, spans=spans)
    probe = worker("probe", args, started)
    record["untraced_pass"] = plain
    record["traced_pass"] = {k: v for k, v in traced.items() if k != "layers"}
    record["spans_file"] = os.path.relpath(spans, ROOT)
    record["coverage"] = probe["failures"]
    metrics = {}
    for name, value in traced["layers"].items():
        metrics[name] = metric(value, LAYER_UNITS[name.rsplit(".", 1)[1]])
    metrics["trace.items_per_s"] = metric(traced["items_per_s"], "1/s")
    metrics["trace.untraced_items_per_s"] = metric(plain["items_per_s"], "1/s")
    metrics["trace.overhead"] = metric(
        plain["items_per_s"] / traced["items_per_s"], "ratio")
    metrics["coverage.failures"] = metric(len(probe["failures"]), "count")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "alphacf", "__init__.py")):
        print(f"error: no alphacf sources under {SRC}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "commit": git_commit(), "source_digest": source_digest(),
    }
    try:
        result = (per_layer if args.trace else end_to_end)(
            args, started, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    first = record.get("run") or record["untraced_pass"]
    record["machine"]["numpy"] = first["numpy"]
    record["input_digest"] = first["input_digest"]
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
