#!/usr/bin/env python3
"""Record the experiment workload's reference reports.

    python3 bench/make_reference.py

Runs the experiment pipeline once per reference seed with the code in src/
and writes ADE, FDE and KDE-NLL of each report to reference_experiment.json.
Rerun it only when a change is meant to alter the reports, and say so.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, THREAD_VARS

sys.path.insert(0, str(ROOT / "src"))
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

from workloads import (  # noqa: E402
    EXPERIMENT_CORPUS, NULL, REFERENCE_FILE, REFERENCE_SEEDS, REPORT_KEYS, experiment_reports,
)


def main() -> int:
    reports = {}
    for seed in range(REFERENCE_SEEDS):
        out, _ = experiment_reports(NULL, EXPERIMENT_CORPUS, seed)
        reports[str(seed)] = {
            name: {key: getattr(report, key) for key in REPORT_KEYS} for name, report in out.items()
        }
        ade = {name: round(r.ade, 4) for name, r in out.items()}
        print(seed, ade, flush=True)
    corpus = [EXPERIMENT_CORPUS.n_human, EXPERIMENT_CORPUS.n_robot, EXPERIMENT_CORPUS.duration_s]
    REFERENCE_FILE.write_text(json.dumps({"corpus": corpus, "reports": reports}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
