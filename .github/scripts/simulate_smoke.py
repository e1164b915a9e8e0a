"""Smoke-run `netdrift simulate` on larger backgrounds than any benchmark
workload simulates (its models have at most 9 background states): the
symmetric (1,K)-limited model at K=12 (S0 = 196), plain and with
`--saturate 1,4`, and the seeded PH/MAP priority model (S0 = 32), plain.
Each run must exit 0 and simulate at least one event; the saturated run
must also take its reference from the closed form and agree with it on
all four queues.  Prints one Markdown table row per run with its wall
time, events per wall second (process start included) and peak RSS
(`os.wait4` of the child); exits 1 after all runs if any failed.

usage: python .github/scripts/simulate_smoke.py >> "$GITHUB_STEP_SUMMARY"
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the benchmark's symmetric limited and PH/MAP models
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from workloads import limited_model, phmap_model  # noqa: E402

HORIZON = "3000"
RUNS = (
    ("sym K=12", 196, lambda: limited_model(12), []),
    ("sym K=12", 196, lambda: limited_model(12), ["--saturate", "1,4"]),
    ("PH/MAP", 32, lambda: phmap_model(random.Random(1))[0], []),
)


def smoke(name, S0, model, extra, tmp):
    """One `simulate` run: its table row and the list of its failures."""
    path, out = os.path.join(tmp, "model.json"), tempfile.mkdtemp(dir=tmp)
    with open(path, "w") as fh:
        json.dump(model, fh)
    start = time.perf_counter()
    child = subprocess.Popen(["netdrift", "simulate", path, "--horizon", HORIZON,
                              *extra, "--out", out], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall, code = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
    failures = [] if code == 0 else [f"exit code {code}, expected 0"]
    events = 0
    summary = os.path.join(out, "summary.json")
    if os.path.exists(summary):
        with open(summary) as fh:
            report = json.load(fh)
        events = sum(r["events"] for r in report["perReplication"])
        if events <= 0:
            failures.append("no events simulated")
        if "--saturate" in extra:
            provenance = (report["analytical"] or {}).get("provenance")
            if provenance != "ClosedForm":
                failures.append(f"reference provenance {provenance}, expected ClosedForm")
            ok = [a["ok"] for a in report["agreement"] or []]
            if ok != [True] * 4:
                failures.append(f"agreement {ok}, expected four ok")
    else:
        failures.append("no summary written")
    row = (f"| {name} | {S0} | {' '.join(extra) or 'plain'} | {code} | {events} | "
           f"{wall:.2f} | {events / wall:,.0f} | {usage.ru_maxrss / 1024:.1f} |")
    return row, failures


def main():
    print("| model | S0 | run | exit | events | wall s | events/s | peak RSS MB |")
    print("|---|---|---|---|---|---|---|---|")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, S0, model, extra in RUNS:
            row, failures = smoke(name, S0, model(), extra, tmp)
            print(row, flush=True)
            for failure in failures:
                sys.stderr.write(f"{name} {' '.join(extra) or 'plain'}: {failure}\n")
            failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
