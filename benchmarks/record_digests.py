"""Record the sha256 of the metrics JSON of every (workload, master seed) call.

Usage, from the root of a checkout: python3 benchmarks/record_digests.py [WORKLOAD ...]

Writes benchmarks/digests.json, which run.py checks every call against. Only
re-record when a change is meant to move seeded numbers, and name the numbers
that moved.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402


def main(names) -> int:
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.exists() else {}
    tmp_root = run.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=tmp_root))
    try:
        for name in names:
            digests = {}
            for master_seed in range(run.POOL_SIZE):
                result = run.call_worker(name, master_seed, tmp / f"{name}-{master_seed}", 600)
                if "error" in result:
                    print(f"{name} master seed {master_seed}: {result['error']}", file=sys.stderr)
                    return 1
                digests[str(master_seed)] = result["digest"]
            recorded[name] = digests
            print(f"{name}: {len(digests)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
