"""The pinned end-to-end digests, as a machine gate.

``python3 perf/run.py --check`` runs every benchmark workload once at
its checking size and compares each run's digest with
``perf/expected.json`` — the "fingerprints unchanged" proof that
simplification PRs cite.  This test only runs the command; it reads
``perf/`` and edits nothing in it.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def test_perf_check_digests_are_unchanged():
    proc = subprocess.run(
        [sys.executable, os.path.join("perf", "run.py"), "--check"],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["failed"] == 0, verdict
