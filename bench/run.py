"""sgclass benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload ideal-sweep --seed 1 --seconds 36 --trace 0

Run from the repository root.  ``--trace 0`` runs passes over one seeded job
list, each in a fresh interpreter, for about ``--seconds``, and prints the
end-to-end metrics at the reference speed of ``reference``.  ``--trace 1``
runs one pass untraced and one with spans around every public sgclass
function, and prints the per-layer metrics.  The last line of output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it are a readable
summary and the run's metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "sgclass"
OUT = HERE / "out"
MIN_PASSES = 3  # fresh interpreters over the same job list, at the least
PROBES_PER_PASS = 3  # fresh interpreters that only set up, before each pass
BUDGET_S = 170.0  # every child finishes inside this, or the run fails

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class RunError(Exception):
    pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: no sgclass sources at {SRC}", file=sys.stderr)
        return 2
    # Children start from compiled bytecode, as an installed package would.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            result = traced_run(args, deadline)
        else:
            result = untraced_run(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    for line in result["summary"]:
        print(line)
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def worker(args, deadline, *extra) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    # The worker puts src/ first on its own path; PYTHONPATH could shadow it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0", str(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish in time: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_run(args, deadline) -> dict:
    # Passes over one job list, each in a fresh interpreter, until the next
    # pass would overrun --seconds; set-up probes run between the passes.
    rounds = str(workloads.ROUNDS[args.workload])
    passes, setups, raw_setups, spent_s = [], [], [], 0.0
    while True:
        for _ in range(PROBES_PER_PASS):
            before = reference.time_ns()
            setup_s = worker(args, deadline, "--rounds", rounds,
                             "--setup-only")["setup_s"]
            raw_setups.append(setup_s)
            setups.append(setup_s * reference.scale(before, reference.time_ns()))
        t = time.monotonic()
        run = worker(args, deadline, "--rounds", rounds)
        if run["jobs"] < 1:
            raise RunError("no job ran")
        if passes and run["jobs_digest"] != passes[0]["jobs_digest"]:
            raise RunError("two passes ran different jobs")
        passes.append(run)
        spent_s += time.monotonic() - t
        if len(passes) >= MIN_PASSES and spent_s * (len(passes) + 1) / len(passes) \
                > args.seconds:
            break

    # A job's time is the median over the passes of its reference time.
    job_ms = [statistics.median(p["job_ref_ns"][i] for p in passes) / 1e6
              for i in range(passes[0]["jobs"])]
    p90 = statistics.quantiles(job_ms, n=10)[8]
    metrics = {"setup_s": statistics.median(setups),
               "jobs_per_s": len(job_ms) / (sum(job_ms) / 1e3),
               "job_p50_ms": statistics.median(job_ms),
               "job_p90_ms": p90,
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    reference_ms = [n / 1e6 for p in passes for n in p["calibration_ns"]]
    first = passes[0]
    summary = [
        f"{args.workload} seed {args.seed}: {first['jobs']} jobs in "
        f"{first['rounds']} rounds, {len(passes)} passes, "
        f"{sum(p['wall_s'] for p in passes):.2f} s of jobs in {spent_s:.2f} s, "
        f"{failed} of {attempted} failed",
        *(f"  {name:<13}{metrics[name]:>12.4f} {unit}" for name, unit in END_TO_END),
        f"  {'failed_share':<13}{failed / attempted:>12.4f} ratio",
        f"  times at the reference speed; a job's time is its median over "
        f"{len(passes)} passes; job_p90_ms is over {len(job_ms)} jobs, "
        f"{sum(1 for t in job_ms if t > p90)} beyond it",
        f"  unscaled: {attempted / sum(p['wall_s'] for p in passes):.4f} jobs/s, "
        f"setup {statistics.median(raw_setups):.4f} s; setup_s is the median "
        f"of {len(setups)} fresh interpreters",
        f"  reference work took {min(reference_ms):.3f}-{max(reference_ms):.3f} ms, "
        f"median {statistics.median(reference_ms):.3f} ms, against "
        f"{reference.REFERENCE_MS} ms at the reference speed",
        *(f"  FAILED {f['job']}: {f['problem']}"
          for p in passes for f in p["failures"]),
    ]
    return {"metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END},
            "attempted": attempted, "failed": failed,
            "summary": summary,
            "meta": meta(args, first, statistics.median(reference_ms)),
            "setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
            "passes": passes}


def traced_run(args, deadline) -> dict:
    # One pass untraced, for the overhead ratio, and one traced: a fixed job
    # list, not a fixed time, so that the counts compare across commits.
    rounds = str(workloads.ROUNDS[args.workload])
    plain = worker(args, deadline, "--rounds", rounds)
    spans = OUT / f"spans-{args.workload}.bin"
    traced = worker(args, deadline, "--rounds", rounds, "--trace", str(spans))
    layers = dict(traced["layers"])
    # at the reference speed, so that a change of machine speed between the
    # two processes does not show as overhead
    layers["trace.overhead_ratio"] = sum(traced["job_ref_ns"]) / sum(plain["job_ref_ns"])
    reference_ms = statistics.median(n / 1e6 for p in (plain, traced)
                                     for n in p["calibration_ns"])
    summary = [
        f"{args.workload} seed {args.seed}: {traced['jobs']} traced jobs in "
        f"{traced['rounds']} rounds, {traced['failed'] + plain['failed']} failed; "
        f"spans in {spans.relative_to(ROOT)}",
        *(f"  {name:<48}{value:>14.6g}" for name, value in sorted(layers.items())),
        *(f"  FAILED {f['job']}: {f['problem']}"
          for f in plain["failures"] + traced["failures"]),
    ]
    return {"metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in layers.items()},
            "attempted": plain["jobs"] + traced["jobs"],
            "failed": plain["failed"] + traced["failed"],
            "summary": summary, "meta": meta(args, traced, reference_ms),
            "untraced_run": plain, "traced_run": traced}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".examined", ".spans")):
        return "count"
    return "ratio"


def meta(args, run, reference_ms: float) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "python": platform.python_version(), "commit": commit(),
            "nproc": os.cpu_count(), "src_lines": src_lines,
            "jobs": run["jobs"], "rounds": run["rounds"],
            "jobs_digest": run["jobs_digest"], "reference_ms": reference_ms}


def commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
