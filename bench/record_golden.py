"""Regenerate bench/golden.json from the current code at the default seed.

    python3 bench/record_golden.py

Golden outputs are recorded once, from code whose results are trusted, and
change only in a change that deliberately alters results.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
import sys
import tempfile

from run import BENCH, ROOT

sys.path.insert(0, str(ROOT / "src"))

from workloads import AVG_SIM_REL_TOL, DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    logging.disable(logging.INFO)  # the CLI logs its resolved config per call
    golden = {"seed": DEFAULT_SEED, "avg_sim_rel_tol": AVG_SIM_REL_TOL}
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, workdir, {})
            workload.setup()
            golden[name] = workload.golden_record()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Budget rows on one line each keep the file short and diffs readable.
    text = re.sub(r"\[[-\d,\s]*\]", lambda m: json.dumps(json.loads(m.group(0))),
                  json.dumps(golden, indent=1))
    with open(BENCH / "golden.json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
