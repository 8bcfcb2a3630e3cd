"""Run one harness call of a benchmark workload and print what it measured.

Usage: python3 benchmarks/worker.py WORKLOAD MASTER_SEED OUT_DIR SPAWNED [--spans PATH]

The process is one user run: interpreter start, import confplan, build the
config, then the harness call with jobs=1. SPAWNED is the parent's
time.monotonic() when it started this process. The last stdout line is a JSON
object with the set-up time (from SPAWNED to the start of the harness call),
the call's wall time, the trials it completed, the sha256 of the metrics JSON
it wrote, the process's peak RSS and the size of the coverage checkpoint.

Untraced, a hostspeed.Sampler runs from the first line to the end of the
call, and the set-up and wall times are also given at the nominal host speed
(setup_nominal, wall_nominal). With --spans the call runs traced, without the
sampler, and its spans are written to PATH afterwards.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("master_seed", type=int)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("spawned", type=float)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sampler = None
    if args.spans is None:
        sampler = hostspeed.Sampler()
        sampler.start()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads  # imports confplan from src/

    call = workloads.build(args.workload, args.master_seed)
    tracer = None
    if args.spans is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    start = time.monotonic()
    call.run(args.out_dir)
    end = time.monotonic()
    timing = {"setup": start - args.spawned, "wall": end - start}
    if sampler is not None:
        sampler.stop()
        timing["setup_nominal"] = sampler.nominal(args.spawned, start)
        timing["wall_nominal"] = sampler.nominal(start, end)

    digest = hashlib.sha256((args.out_dir / f"{call.stem}.json").read_bytes()).hexdigest()
    checkpoint = args.out_dir / "trials.jsonl"
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(
        json.dumps(
            {
                **timing,
                "trials": call.trials,
                "digest": digest,
                "peak_rss_mb": peak_kb / 1024.0,
                "checkpoint_bytes": checkpoint.stat().st_size if checkpoint.exists() else 0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
