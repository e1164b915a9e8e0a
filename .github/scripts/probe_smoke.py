"""Smoke-run `netdrift validate` at the default probe radius on two large
symmetric (1,K)-limited models: K=12 (S0 = 196) and K=30 (S0 = 1,024, a
39.3M-state probe box).  No benchmark workload probes a model this large.
Each run must exit 0 and report `ConfirmedSemiIrreducible`.  Prints one
Markdown table row per run with its wall time and peak RSS (`os.wait4` of
the child); exits 1 after both runs if either failed.

usage: python .github/scripts/probe_smoke.py >> "$GITHUB_STEP_SUMMARY"
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the benchmark's symmetric limited model
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from workloads import limited_model  # noqa: E402

CONFIRMED = "ConfirmedSemiIrreducible"


def smoke(K, tmp):
    """One `validate` run: its table row and the list of its failures."""
    model, out = os.path.join(tmp, f"sym_k{K}.json"), os.path.join(tmp, f"sym_k{K}.out.json")
    with open(model, "w") as fh:
        json.dump(limited_model(K), fh)
    start = time.perf_counter()
    child = subprocess.Popen(["netdrift", "validate", model, "--out", out])
    _, status, usage = os.wait4(child.pid, 0)
    wall, code = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
    failures = [] if code == 0 else [f"exit code {code}, expected 0"]
    verdict = None
    if os.path.exists(out):
        with open(out) as fh:
            verdict = json.load(fh)["semiIrreducibility"]
        if verdict != CONFIRMED:
            failures.append(f"semiIrreducibility {verdict}, expected {CONFIRMED}")
    else:
        failures.append("no report written")
    row = (f"| sym K={K} | {(K + 2) ** 2} | {code} | {verdict} | {wall:.2f} | "
           f"{usage.ru_maxrss / 1024:.1f} |")
    return row, failures


def main():
    print("| model | S0 | exit | probe verdict | wall s | peak RSS MB |")
    print("|---|---|---|---|---|---|")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for K in (12, 30):
            row, failures = smoke(K, tmp)
            print(row, flush=True)
            for failure in failures:
                sys.stderr.write(f"sym K={K}: {failure}\n")
            failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
