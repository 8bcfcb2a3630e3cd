"""confplan benchmark: harness throughput per workload, checked against recorded digests.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload coverage-selector --seed 1 --seconds 30 --trace 0

A run spawns one worker process per harness call (benchmarks/worker.py), one
after another, until --seconds have passed. Each call is one user run of the
harness with jobs=1 on a master seed drawn from --seed, and its metrics JSON
must hash to the digest recorded for that workload and master seed
(digests.json); a call that raises or mismatches counts as failed.

With --trace 0 the run reports the end-to-end metrics, as medians over its
calls, with times rescaled to the nominal host speed (see hostspeed.py); the
medians at the host speed of the run follow as comments. With --trace 1 it runs each master seed twice, untraced and then
traced, and reports the per-layer metrics of the traced calls (see tracer.py).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it are comments that stamp the
environment and list each metric with its unit. The run exits 2 without a
result when the checkout holds no confplan sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
DIGESTS = BENCH_DIR / "digests.json"

POOL_SIZE = 48  # master seeds per workload with a recorded digest
RUN_DEADLINE_S = 170.0  # a run ends well inside 180 s, even if a call hangs
HELD_OUT_SEED = 20261017  # re-check claims on this seed; never tune on it

END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def master_seeds(workload: str, seed: int) -> list[int]:
    """The pool of master seeds in an order fixed by (workload, seed)."""
    return random.Random(f"{workload}/{seed}").sample(range(POOL_SIZE), POOL_SIZE)


def call_worker(workload: str, master_seed: int, out_dir: Path, timeout: float, spans=None):
    """Run one harness call in a fresh process and return what it measured
    (see worker.py), or {"error": ...}."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(WORKER), workload, str(master_seed), str(out_dir), repr(spawned)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"master_seed": master_seed, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"master_seed": master_seed, "error": f"worker exited with {proc.returncode}"}
    result = json.loads(lines[-1])
    result["master_seed"] = master_seed
    return result


def passed(result: dict, expected: dict) -> bool:
    """A call passes when it ran and its metrics JSON has the recorded digest."""
    return "error" not in result and result["digest"] == expected.get(str(result["master_seed"]))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(results, expected: dict) -> dict[str, float]:
    """The declared metrics; times are at the nominal host speed."""
    good = [r for r in results if passed(r, expected)]
    return {
        "trials_per_s": _median(r["trials"] / r["wall_nominal"] for r in good),
        "setup_s": _median(r["setup_nominal"] for r in good),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in good),
        "ok_frac": len(good) / len(results),
    }


def per_layer(plain, traced, expected: dict) -> dict[str, float]:
    """Per-layer metrics of the traced calls; the overhead compares each
    traced call with the untraced call of the same master seed."""
    pairs = [
        (p, t) for p, t in zip(plain, traced) if passed(p, expected) and passed(t, expected)
    ]
    untraced_wall = sum(p["wall"] for p, _ in pairs)
    overhead = sum(t["wall"] for _, t in pairs) / untraced_wall - 1.0 if pairs else 0.0
    checkpoint = _median(t["checkpoint_bytes"] for _, t in pairs)
    runs = (json.loads(Path(t["spans"]).read_text()) for _, t in pairs)
    return tracer.layer_metrics(runs, checkpoint, overhead)


def report(metrics: dict, units: dict, results, expected: dict) -> dict:
    """The result line: every call that raised or mismatched its digest fails."""
    failed = sum(1 for r in results if not passed(r, expected))
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def measure(workload: str, seeds, seconds: float, trace: bool, tmp: Path):
    """Spawn calls while the next one, as long as the last, still ends within
    `seconds` (at least one call)."""
    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    plain, traced = [], []
    last = 0.0
    for i, master_seed in enumerate(seeds):
        started = time.monotonic()
        if i and started - began + last > seconds:
            break
        remaining = deadline - time.monotonic()
        plain.append(call_worker(workload, master_seed, tmp / f"call-{i}", remaining))
        if trace:
            spans = tmp / f"spans-{i}.json"
            result = call_worker(
                workload, master_seed, tmp / f"traced-{i}", deadline - time.monotonic(), spans
            )
            result["spans"] = str(spans)
            traced.append(result)
        last = time.monotonic() - started
        if time.monotonic() >= deadline:
            break
    return plain, traced


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "confplan" / "__init__.py").is_file():
        print(f"error: no confplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if args.workload not in recorded:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(recorded)}")
    expected = recorded[args.workload]

    stamp = environment(args.workload, args.seed)
    seeds = master_seeds(args.workload, args.seed)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        plain, traced = measure(args.workload, seeds, args.seconds, bool(args.trace), tmp)
        results = plain + traced
        if args.trace:
            metrics = per_layer(plain, traced, expected)
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        else:
            metrics = end_to_end(plain, expected)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is still using it

    stamp["master_seeds"] = [r["master_seed"] for r in plain]
    print("# env " + json.dumps(stamp))
    for r in results:
        if not passed(r, expected):
            reason = r.get("error", f"digest {r.get('digest')} is not the recorded one")
            print(f"# FAILED {args.workload} master seed {r['master_seed']}: {reason}")
    final = report(metrics, units, results, expected)
    for name, value in metrics.items():
        print(f"# {name:48s} {value:.6g} {units[name]}")
    if not args.trace:
        good = [r for r in plain if passed(r, expected)]
        wall_tps = _median(r["trials"] / r["wall"] for r in good)
        print(f"# {'trials_per_s at the host speed of the run':48s} {wall_tps:.6g} trials/s")
        print(f"# {'setup_s at the host speed of the run':48s} {_median(r['setup'] for r in good):.6g} s")
    print(f"# {'failed_frac':48s} {final['failed'] / final['attempted']:.6g} ratio")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
