"""One sample of a workload in a fresh interpreter.

Run by run.py, never by hand.  The process imports nbbm, parses the config
(the set-up the parent times from spawn to `t_ready`), times the reference
work, runs the workload's timed body once, times the reference work again,
checks its outputs and prints one JSON record as the last line of its
standard output.  With --spans it first wraps nbbm's public functions
(tracing.py) and adds the per-layer figures to the record.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _digests(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.is_file()}


def reference_s(numpy) -> float:
    """Seconds for a fixed mix of interpreter work (dict and float updates)
    and numpy array work, about 0.2 s; none of it touches nbbm.  A shared
    host changes speed from one second and one minute to the next, and the
    workloads slow with it: run.py divides a sample's wall time by the mean
    of the reference times taken just before and after it, which cancels
    much of that drift."""
    a = numpy.linspace(0.0, 1.0, 35_000)
    t0 = time.perf_counter()
    d: dict[int, float] = {}
    for i in range(480_000):
        d[i & 1023] = d.get(i & 1023, 0.0) + i * 0.5
    total = 0.0
    for _ in range(480):
        x = numpy.exp(-a) * a + numpy.sqrt(a)
        total += float(x[x > 0.5].sum())
    return time.perf_counter() - t0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--config", type=Path)
    p.add_argument("--spans", type=Path,
                   help="trace the run and write its spans to this CSV")
    p.add_argument("--warmup", action="store_true",
                   help="import only: compiles bytecode before the timed runs")
    args = p.parse_args()

    import nbbm.cli
    import numpy
    import scipy

    if args.warmup:
        print(json.dumps({"failures": []}))
        return 0
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]
    cfg = nbbm.cli.parse_config(args.config)[0] if args.config else None
    ctx = workloads.Context(out=args.out, config=args.config, cfg=cfg,
                            seed=args.seed)

    failures = []
    t_ready = time.monotonic()
    ref_before = reference_s(numpy)
    origin = time.perf_counter()
    t_start = time.monotonic()
    try:
        wl.body(ctx)
    except Exception:
        # a run fails on any exception, CapacityError included: record it
        # so the parent still gets a record to count
        failures.append(traceback.format_exc(limit=3))
    t_end = time.monotonic()
    ref_after = reference_s(numpy)

    record = {"t_ready": t_ready, "wall_s": t_end - t_start,
              "ref_s": (ref_before + ref_after) / 2}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.summary()
        tracer.write_spans(args.spans, origin)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counters = {}
    if not failures:
        try:
            counters = wl.verify(ctx)
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as e:
            failures.append(f"output check: {type(e).__name__}: {e}")
    record.update(counters=counters, digests=_digests(args.out),
                  failures=failures,
                  versions={"python": sys.version.split()[0],
                            "numpy": numpy.__version__,
                            "scipy": scipy.__version__})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
