"""Write the stored reference outputs that the output checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change to copsamp's results is intended and
explained; the references pin the outputs of the reference seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import REFERENCE_DIR, REFERENCE_SEED, CliIo, SimPaper  # noqa: E402


def main() -> int:
    scratch = os.path.join(os.path.dirname(REFERENCE_DIR), "out")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    try:
        sim = SimPaper(REFERENCE_SEED, workdir, workers=1)
        sim.setup()
        docs = {
            "sim_paper.json": {"seed": REFERENCE_SEED, "trials": sim.REFERENCE_TRIALS,
                               "rows": sim.reference_rows()},
            "cli_io.json": CliIo(REFERENCE_SEED, workdir, workers=1).reference_outputs(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, doc in docs.items():
        with open(os.path.join(REFERENCE_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.join(REFERENCE_DIR, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
