"""Record the sha256 of every benchmark request's stdout at this commit.

    python3 perfbench/record_stdout.py

Runs one untraced pass of each workload (of jets, one per seed of
``run.RECORDED_SEEDS``) and writes ``stdout_sha256.json`` (request key ->
stdout sha256), which ``run.py`` compares against to count
``cli.stdout_mismatch``.  Requests whose answer fails the gate are not
recorded.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    table = {}
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        # only jets depends on the seed
        for seed in run.RECORDED_SEEDS if name == "jets" else [0]:
            workdir = Path(tempfile.mkdtemp(dir=scratch))
            try:
                runner = run.Runner(workdir, time.monotonic() + 3600)
                rows = workloads.build(name, seed, workdir)
                for r in runner.run_pass(rows, traced=False):
                    if r.failure:
                        print(f"{name} {seed} {r.row.name}: {r.failure}",
                              file=sys.stderr)
                        return 1
                    table[r.stdout_key] = r.stdout_sha
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {name} seed {seed}: {len(table)} requests")
    run.STDOUT_TABLE.write_text(json.dumps(table, indent=0, sort_keys=True)
                                + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
