"""Record the workers = 1 output digests that benchmark runs must match.

    python3 perfbench/record_references.py SEED [SEED ...]

For every workload and seed, runs the
workload's config with workers = 1 and stores the sha256 of its
``report.json`` and ``assertions.csv`` in ``perfbench/references.json``,
keeping entries for other seeds. Run it again only when a change alters
the report bytes on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(seeds: list[int]) -> None:
    run.use_checkout(run.ROOT)
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    work = run.WORK / "references"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            for seed in seeds:
                config_path = work / f"{workload}.cfg"
                config_path.write_text(run.config_text(workload, seed, work / "out"))
                refs.setdefault(workload, {})[str(seed)] = run.serial_digests(config_path)
                print(workload, seed, refs[workload][str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    os.chdir(run.ROOT)
    main([int(s) for s in sys.argv[1:]])
