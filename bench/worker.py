"""One pass over a workload's job list in a fresh interpreter; prints one JSON line.

Started by ``run.py``, never by hand.  The interpreter is new for every pass
so the library's ``lru_cache``s start cold and identical on every commit.
The reference work of ``reference`` is timed before the first job and after
each job, outside the job's own time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True,
                        help="how many rounds of jobs to run")
    parser.add_argument("--t0", type=int, required=True,
                        help="time.monotonic_ns() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    # Importing sgclass loads every layer but cli.
    importlib.import_module("sgclass.cli" if args.workload == "cli-mix" else "sgclass")
    import reference
    import workloads
    rounds = workloads.make_rounds(args.workload, args.seed, args.rounds)
    sg = sys.modules["sgclass"]
    runner = workloads.Runner(args.workload, sg)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        layers = {name: importlib.import_module(f"sgclass.{name}")
                  for name in tracing.LAYERS}
        tracer = tracing.Tracer()
        tracing.install(tracer, sg, layers)
        job_nid = tracer.name_id("job")
    caches = {"member_bits": sg.semigroups._member_bits,
              "unit_ideal": sg.ideals.unit_ideal.__wrapped__
              if tracer else sg.ideals.unit_ideal}
    before = {k: fn.cache_info() for k, fn in caches.items()}

    times, failures, examined = [], [], 0
    calibration = [reference.time_ns()]  # before the first job and after each
    digest = hashlib.sha256()
    for jobs in rounds:
        digest.update(json.dumps(jobs, sort_keys=True).encode())
        for job in jobs:
            if tracer:
                idx = tracer.open(job_nid)
            t = time.perf_counter_ns()
            try:
                output, problem = runner.run(job), None
            except Exception as exc:  # a raising job is a failed job
                output, problem = None, f"raised {exc!r}"
            dt = time.perf_counter_ns() - t
            if tracer:
                tracer.close(idx)
            times.append(dt)
            calibration.append(reference.time_ns())
            if problem is None:
                try:
                    problem = workloads.check(job, output)
                except Exception as exc:  # malformed output
                    problem = f"output could not be checked: {exc!r}"
            if problem is None and job["kind"] == "sweep":
                examined += output[1][0]
            if problem is not None:
                failures.append({"job": job, "problem": problem})
            del output
    after = {k: fn.cache_info() for k, fn in caches.items()}

    result = {
        "setup_s": setup_s,
        "jobs": len(times),
        "rounds": args.rounds,
        "failed": len(failures),
        "failures": failures[:3],
        "wall_s": sum(times) / 1e9,
        "job_ns": times,
        # each job's wall time at the reference speed, from the samples around it
        "job_ref_ns": [t * reference.scale(calibration[i], calibration[i + 1])
                       for i, t in enumerate(times)],
        "calibration_ns": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs_digest": digest.hexdigest(),
    }
    if tracer:
        hit_ratio = {}
        for key in caches:
            hits = after[key].hits - before[key].hits
            misses = after[key].misses - before[key].misses
            hit_ratio[key] = hits / (hits + misses) if hits + misses else 0.0
        result["layers"] = tracing.layer_metrics(tracer, sum(times), hit_ratio,
                                                  examined)
        spans = Path(args.trace)
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
