"""One benchmark process: a set-up, a timed run, a fixed pass or the probe.

``run.py`` starts a fresh process for every measurement, so peak RSS is
per workload and the CLI's rewrite of ``exact.DEFAULT_BITS`` cannot leak
from one workload into another.  The process prints one JSON line.

Modes:
  setup    set up (import, inputs, weights, warm-up) and stop
  measure  set up, then run units until --seconds of work time have passed
  pass     set up, then run the workload's fixed traced-pass units
  trace    as ``pass``, with every traced function wrapped (tracing.py)
  probe    the untimed carrier-coverage probe
"""

import argparse
import json
import resource
import sys
import time

from hostclock import REF_CAL_S, HostClock

# the tracer's wrappers add frames to AdaptiveReal's nested enclosure
# recursion; this keeps a traced pass from failing where an untraced one
# does not
TRACED_RECURSION_LIMIT = 4000


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--mode", required=True,
                   choices=("setup", "measure", "pass", "trace", "probe"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() just before the process was started")
    p.add_argument("--spans", default=None)
    return p.parse_args()


def run_units(units, stop, clock, tracer=None):
    """Run items unit by unit until ``stop(units_done, work_elapsed)``."""
    intervals, errors = [], {}
    attempted = failed = done = 0
    w_begin = clock.now()
    for unit in units:
        for item in unit:
            if tracer is not None:
                tracer.item = f"{done}:{item.name}"
            w0 = clock.now()
            try:
                out = item.run()
                error = None
            except Exception as exc:  # a failed item is counted, not fatal
                error = exc
            intervals.append((w0, clock.now()))
            if error is None:
                try:
                    ok = bool(item.check(out))
                except Exception as exc:  # a malformed output fails its check
                    ok, error = False, exc
            else:
                ok = False
            attempted += item.weight
            if not ok:
                failed += item.weight
                why = (f"{type(error).__name__}: {error}" if error
                       else "check failed")
                errors.setdefault(item.name, why[:300])
        done += 1
        if stop(done, clock.now() - w_begin):
            break
    return {"intervals": intervals, "attempted": attempted, "failed": failed,
            "units": done, "errors": errors}


def main() -> None:
    args = parse_args()
    clock = HostClock()
    mono_start = time.monotonic()
    clock.start()
    w_start = clock.now()
    if args.mode == "trace":
        sys.setrecursionlimit(TRACED_RECURSION_LIMIT)

    import workloads as wl
    import numpy

    if args.mode == "probe":
        failures = wl.coverage_probe(args.workdir)
        clock.stop()
        print(json.dumps({"failures": failures}))
        return

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer(clock)
        tracer.install()

    workload = wl.WORKLOADS[args.workload](args.seed, args.workdir,
                                           wl.load_reference())
    workload.warm_up()
    w_ready = clock.now()
    if args.mode == "setup":
        for _ in range(3):
            clock.sample()
    elif args.mode == "measure":
        result = run_units(workload.units(),
                           lambda done, elapsed: elapsed >= args.seconds,
                           clock)
    else:
        make_u_setup = tracer.self_s["brjuno.make_u"] if tracer else 0.0
        if tracer:
            tracer.reset()
        result = run_units(workload.units(),
                           lambda done, _: done >= workload.trace_units,
                           clock, tracer)
    clock.stop()

    norm = clock.normaliser()
    first_factor = REF_CAL_S / clock.samples[0][1]
    out = {
        "setup_s": ((mono_start - args.spawned) * first_factor
                    + norm(w_start, w_ready)),
        "setup_raw_s": (mono_start - args.spawned) + (w_ready - w_start),
        "kernel_median_s": clock.kernel_median(),
        "kernel_samples": len(clock.samples),
        "numpy": numpy.__version__,
        "input_digest": wl.digest(workload.inputs),
    }
    if args.mode != "setup":
        intervals = result.pop("intervals")
        work_s = sum(norm(w0, w1) for w0, w1 in intervals)
        raw_s = sum(w1 - w0 for w0, w1 in intervals)
        out.update(result)
        out["work_s"] = work_s
        out["raw_work_s"] = raw_s
        out["items_per_s"] = result["attempted"] / work_s
        out["raw_items_per_s"] = result["attempted"] / raw_s
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    if tracer is not None:
        scale = REF_CAL_S / clock.kernel_median()
        out["layers"] = tracer.metrics(scale, make_u_setup * scale)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
