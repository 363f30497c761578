"""Record perfbench/references.json from the code under src/.

    python3 perfbench/record.py

Runs every workload chain once (triforce once per variant) and stores, for
every artifact, the SHA-256 of its bytes and the fields of JSON artifacts.
Refuses to record when a command fails or a chain's cross-check fails.  Run
it only on the code whose outputs are the reference: the benchmark treats
any later difference as a wrong output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, ROOT, Runner, git_commit
from workloads import TRIFORCE_VARIANTS, WORKLOADS, describe


def main() -> int:
    chains = [WORKLOADS["corner3d"](0), WORKLOADS["fivepoint"](0)]
    chains += [WORKLOADS["triforce"](v) for v in range(TRIFORCE_VARIANTS)]
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
    references = {"recorded_from": git_commit()}
    try:
        runner = Runner(workdir, time.monotonic() + 3600)
        for chain in chains:

            def record(run_dir, chain=chain):
                references[chain.reference] = describe(chain, run_dir)
                return chain.cross_check(run_dir) if chain.cross_check else []

            runner.chain(chain, False, record)
            print(f"{chain.reference}: {len(references[chain.reference])} artifacts", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.failed:
        print("not recorded:", *runner.failures, sep="\n  ", file=sys.stderr)
        return 1
    (HERE / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
