"""Record the golden answers of the default seed.

Run from the root of a checkout, at the commit whose answers are the
reference:

    PYTHONPATH=src python3 perfbench/record_golden.py [workload ...]

Each workload's requests run once; every answer must first pass the seeded
spot checks, then the exact-mode reports are stored by SHA-256 and the
float-mode reports in full, in `golden/<workload>.json.gz`.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import gate
import workloads
from worker import OUT_DIR, run_round


def record(workload: str) -> None:
    run_dir = OUT_DIR / f"golden-{workload}"
    try:
        requests = workloads.build(workload, gate.DEFAULT_SEED, run_dir)
        answers = run_round(requests, {})
        entries = []
        for ans in answers:
            req = requests[ans.index]
            gate.check(req, ans.index, gate.DEFAULT_SEED, ans.code, ans.stdout, None)
            if req.out_dir is not None:
                gate.check_out_dir(req, ans.stdout, ans.files)
            entries.append(gate.golden_entry(req, ans.stdout))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    path = gate.golden_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(entries, sort_keys=True, separators=(",", ":")).encode())
    print(f"{path.name}: {len(entries)} requests, {path.stat().st_size} bytes")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
