"""Benchmark of the nbbm toolkit: end-to-end figures per workload, and a
separate traced run for the per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload nbbm-front --seed 1 --seconds 30 \\
        --trace 0

The workloads are nbbm-front, barrier-breakout, coupled-triple and
killed-ensemble, one per invocation; workloads.py defines them and says why
each exists.  Every sample runs the workload once in a fresh interpreter
(child.py) with one simulation thread and BLAS pinned to one thread, against
the sources under ./src, on inputs made from --seed.  Every sample of a run
reruns the same inputs, so each must reproduce the first one's outputs byte
for byte; one that does not counts as a failure, as does a nonzero exit, an
exception or a failed output check.  The self-checks of the benchmark run
with `python3 -m pytest perfbench`.

--trace 0 prints the end-to-end metrics, each the median over the run's
samples: setup_s (spawn to the first runner call), wall_ref, work_per_ref
and peak_rss_mb.  wall_ref is the sample's wall_s (first runner call to
last output written) divided by ref_s, the time the same child takes for a
fixed reference work around its timed body (child.py), and work_per_ref is
the workload's work counter over wall_ref.  On a shared host the speed of
a core drifts from second to second and minute to minute, and the
workloads slow with the reference, so the ratio stays steadier than raw
seconds across runs.  Raw wall_s, ref_s and work_per_s are printed too,
with their percentiles, but are not the gated metrics.  --trace 1
alternates untraced and traced samples and prints the per-layer metrics of
tracing.py, the exact work counters and the tracing overhead (traced minus
untraced wall_s); the spans of the last traced sample are kept under
.perfbench_trace/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the details: percentiles and sample counts, work counters, sha256
digests of every output file, error rate and environment.
Exit code 2 means the nbbm sources were not found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COVERAGE, per_layer_units
from workloads import BARRIER_COUNTERS, WORKLOADS

MIN_SAMPLES = 4
# Every run, the slowest child included, ends well inside 180 s.
DEADLINE_S = 160.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_trace"

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref",
                    "work_per_ref": "1/ref", "peak_rss_mb": "MB"}
# printed with their percentiles next to the end-to-end metrics, not gated
RAW_UNITS = {"wall_s": "s", "ref_s": "s", "work_per_s": "1/s"}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env() -> dict[str, str]:
    """One simulation thread, BLAS on one thread, nbbm from ./src."""
    env = dict(os.environ)
    env.pop("NBBM_THREADS", None)
    env.update({k: "1" for k in THREAD_ENV}, PYTHONPATH=str(ROOT / "src"))
    return env


def timing(values: list[float]) -> dict:
    """Median, the highest whole percentile with at least ten samples beyond
    it (None below eleven samples), and the sample count."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n,
           "percentile": None, "value_at_percentile": None}
    p = int(100 * (1 - 10 / n)) if n > 10 else 0
    if p >= 1:
        out["percentile"] = p
        out["value_at_percentile"] = statistics.quantiles(
            values, n=100, method="inclusive")[p - 1]
    return out


class Runner:
    """Spawns the child samples of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = pinned_env()
        self.work = WORK_DIR / f"{workload}-{os.getpid()}"
        self.count = 0

    def child(self, extra: list[str]) -> dict:
        """Run one child to completion; returns its record plus setup_s."""
        run_dir = self.work / f"sample{self.count}"
        self.count += 1
        out = run_dir / "out"
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out)] + extra
        text = WORKLOADS[self.workload].config(self.seed)
        if text is not None:
            (run_dir / "config.ini").write_text(text)
            cmd += ["--config", str(run_dir / "config.ini")]
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=run_dir, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"failures": [f"child timed out after {timeout:.0f} s"]}
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            rec = {"failures": [f"no result record: {proc.stderr[-2000:]}"]}
        if proc.returncode != 0:
            rec.setdefault("failures", []).append(
                f"child exited {proc.returncode}")
        if "t_ready" in rec:
            rec["setup_s"] = rec.pop("t_ready") - t_spawn
        return rec

    def collect(self, seconds: float, extras: list[list[str]]) -> list[dict]:
        """Rounds of one child per entry of `extras`, at least MIN_SAMPLES
        children, for about `seconds`."""
        samples: list[dict] = []
        t0 = time.monotonic()
        rounds = 0
        while True:
            samples += [self.child(extra) for extra in extras]
            rounds += 1
            elapsed = time.monotonic() - t0
            per_round = elapsed / rounds
            if time.monotonic() + per_round > self.deadline:
                break
            if len(samples) >= MIN_SAMPLES and elapsed + per_round > seconds:
                break
        mark_reruns(samples)
        return samples

    def warm_up(self) -> None:
        """Compile bytecode and fill the page cache; nothing is timed."""
        rec = self.child(["--warmup"])
        if rec.get("failures"):
            raise RuntimeError(f"warm-up failed: {rec['failures']}")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass


def mark_reruns(samples: list[dict]) -> None:
    """Every sample reruns the same inputs: outputs and counters must match
    the first good sample's byte for byte."""
    ref = None
    for s in good(samples):
        ref = ref or s
        if s["digests"] != ref["digests"] or s["counters"] != ref["counters"]:
            s["failures"].append("rerun is not byte-identical")


def good(samples: list[dict]) -> list[dict]:
    return [s for s in samples if not s.get("failures")]


def _common(samples: list[dict]) -> dict:
    ok = good(samples)
    return {"counters": ok[0]["counters"], "digests": ok[0]["digests"],
            "versions": ok[0]["versions"],
            "samples": [{k: s.get(k) for k in ("setup_s", "wall_s", "ref_s",
                                               "rss_mb", "failures")}
                        | {"traced": "layers" in s} for s in samples]}


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    samples = runner.collect(seconds, [[]])
    ok = good(samples)
    if not ok:
        return {}, {"samples": samples}
    counter = WORKLOADS[runner.workload].work
    series = {
        "setup_s": [s["setup_s"] for s in ok],
        "wall_ref": [s["wall_s"] / s["ref_s"] for s in ok],
        "work_per_ref": [s["counters"][counter] * s["ref_s"] / s["wall_s"]
                         for s in ok],
        "peak_rss_mb": [s["rss_mb"] for s in ok],
        "wall_s": [s["wall_s"] for s in ok],
        "ref_s": [s["ref_s"] for s in ok],
        "work_per_s": [s["counters"][counter] / s["wall_s"] for s in ok],
    }
    metrics = {k: statistics.median(series[k]) for k in END_TO_END_UNITS}
    raw = {k: statistics.median(series[k]) for k in RAW_UNITS}
    detail = {"timings": {k: timing(v) for k, v in series.items()},
              "work_counter": counter, "raw": raw}
    return metrics, detail | _common(samples)


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced sample."""
    counters = traced["counters"]
    out = {k: traced["layers"].get(k, 0) for k in per_layer_units()}
    events = out["selection.run_coupled.events"]
    out["selection.run_coupled.us_per_event"] = (
        1e6 * out["selection.run_coupled.s"] / events if events else 0.0)
    for k in BARRIER_COUNTERS:
        out[f"selection.barrier.{k}"] = counters.get(k, 0)
    base = counters.get("breakouts", 0)
    out["selection.barrier.installed_per_breakout"] = (
        counters["installed"] / base if base else 0.0)
    out["work.particle_steps"] = counters.get("particle_steps", 0)
    out["trace.wall_s"] = traced["wall_s"]
    out["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    return out


def coverage_failures(workload: str, layers: dict) -> list[str]:
    """Calls on a workload that should bypass a wrapper, or none on one
    that should exercise it."""
    return [f"trace coverage: {name} made {layers[f'{name}.calls']} calls "
            f"on {workload}"
            for name, expected in COVERAGE.items()
            if (layers[f"{name}.calls"] > 0) != (workload in expected)]


def traced_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    TRACE_DIR.mkdir(exist_ok=True)
    spans = TRACE_DIR / f"{runner.workload}.spans.csv"
    samples = runner.collect(seconds, [[], ["--spans", str(spans)]])
    for s in samples:
        if "layers" in s:
            s["failures"] += coverage_failures(runner.workload, s["layers"])
    ok = good(samples)
    plain = [s["wall_s"] for s in ok if "layers" not in s]
    traced = [s for s in ok if "layers" in s]
    if not plain or not traced:
        return {}, {"samples": samples}
    untraced_wall = statistics.median(plain)
    per_sample = [layer_metrics(s, untraced_wall) for s in traced]
    metrics = {}
    for k, unit in per_layer_units().items():
        vals = [m[k] for m in per_sample]
        if unit not in ("count", "bytes"):
            metrics[k] = statistics.median(vals)
            continue
        # exact counts: every rerun must repeat them
        if len(set(vals)) > 1:
            traced[-1]["failures"].append(
                f"{k} differs between traced reruns: {vals}")
        metrics[k] = vals[0]
    detail = {"untraced_wall_s": timing(plain),
              "traced_wall_s": timing([s["wall_s"] for s in traced]),
              "spans_file": str(spans.relative_to(ROOT))}
    return metrics, detail | _common(samples)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "nbbm" / "__init__.py").is_file():
        print(f"perfbench: no nbbm sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        runner.warm_up()
        run = traced_run if args.trace else timed_run
        metrics, detail = run(runner, args.seconds)
    finally:
        runner.close()

    samples = detail["samples"]
    failed = sum(1 for s in samples if s.get("failures"))
    if not metrics:
        print(json.dumps(detail, default=str), file=sys.stderr)
        print("perfbench: every sample failed", file=sys.stderr)
        return 1
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        error_rate=failed / len(samples),
        environment={"nproc": os.cpu_count(),
                     "affinity": len(os.sched_getaffinity(0)),
                     **{k: runner.env[k] for k in THREAD_ENV},
                     "NBBM_THREADS": None, "config_threads": 1})
    for name, value in (metrics | detail.get("raw", {})).items():
        unit = (units | RAW_UNITS)[name]
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
