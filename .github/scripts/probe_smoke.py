"""Smoke-run `netdrift validate` on two large symmetric (1,K)-limited
models: K=12 (S0 = 196) and K=30 (S0 = 1,024).  No benchmark workload
probes a model this large.  The probe runs its one rule: the drain lemma at
each of the 80 nonzero signatures, then a search of level 0 in the box
{0, 1}^4 x S0 (16,384 states at K=30).  Each run must exit 0 and report
`ConfirmedSemiIrreducible`, and the K=30 run must peak at most
PEAK_CEILING_MB = 75 MB (`os.wait4` of the child): about 1.5 times the
50 MB it peaks at (2 vCPU, Python 3.11, numpy 2.4), where the radius-3 box
probe that the lemma replaced peaked at 75 MB.  Prints one Markdown table
row per run with its wall time and peak RSS.

Then a `sweep` of `services.4.rate` over SWEEP_MU4 on sym K=12, whose
kernel blocks (S0 = 196) are larger than any that a benchmark sweep
refills: its points share one block pattern and the later ones refill
it.  The sweep must exit 0, write the same CSV bytes with `--jobs 2`,
and give each point the classification and r1r2 of `analyze --mode
closed`.  Its row reports the wall time of the first point alone, of the
whole sweep, and per point after the first (their difference over the
later points).  Exits 1 after every run if any check failed.

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
# peak RSS ceilings in MB, by K
PEAK_CEILING_MB = {30: 75}


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
    peak = usage.ru_maxrss / 1024
    if peak > PEAK_CEILING_MB.get(K, float("inf")):
        failures.append(f"peak RSS {peak:.1f} MB, over the ceiling of {PEAK_CEILING_MB[K]} MB")
    row = (f"| sym K={K} | {(K + 2) ** 2} | {code} | {verdict} | {wall:.2f} | "
           f"{peak:.1f} |")
    return row, failures


# the sweep's model and class-4 rates: both verdicts, at a K whose blocks no
# benchmark sweep builds
SWEEP_K, SWEEP_MU4 = 12, [1.5, 1.8, 2.4, 3.6]


def _run(argv):
    """`netdrift argv`: its exit code and wall time."""
    start = time.perf_counter()
    code = subprocess.run(["netdrift", *argv]).returncode
    return code, time.perf_counter() - start


def sweep_smoke(tmp):
    """The `services.4.rate` sweep: its table row and the list of its failures."""
    model, sweep = os.path.join(tmp, "sweep_model.json"), os.path.join(tmp, "sweep.json")
    with open(model, "w") as fh:
        json.dump(limited_model(SWEEP_K), fh)
    failures, walls, csvs = [], {}, {}
    for name, values, jobs in (("first", SWEEP_MU4[:1], "1"), ("serial", SWEEP_MU4, "1"),
                               ("jobs2", SWEEP_MU4, "2")):
        with open(sweep, "w") as fh:
            json.dump({"parameter": "services.4.rate", "values": values}, fh)
        out = os.path.join(tmp, f"sweep_{name}.csv")
        code, walls[name] = _run(["sweep", model, sweep, "--mode", "closed", "--jobs", jobs,
                                  "--out", out])
        if code != 0:
            failures.append(f"{name} sweep exit code {code}, expected 0")
        csvs[name] = Path(out).read_bytes() if os.path.exists(out) else b""
    if csvs["serial"] != csvs["jobs2"]:
        failures.append("the --jobs 2 CSV differs from the serial one")
    rows = [line.split(",", 5) for line in csvs["serial"].decode().splitlines()[1:]]
    if len(rows) != len(SWEEP_MU4):
        failures.append(f"{len(rows)} sweep rows, expected {len(SWEEP_MU4)}")
    for mu4, row in zip(SWEEP_MU4, rows):
        point, out = os.path.join(tmp, "point.json"), os.path.join(tmp, "point.out.json")
        services = limited_model(SWEEP_K)["services"][:3] + [{"exponential": mu4}]
        with open(point, "w") as fh:
            json.dump(dict(limited_model(SWEEP_K), services=services), fh)
        _run(["analyze", point, "--mode", "closed", "--out", out])
        with open(out) as fh:
            report = json.load(fh)
        os.remove(out)
        got = (row[4], float(row[3]) if row[3] else None)
        if got != (report["classification"], report["r1r2"]):
            failures.append(f"mu4 = {mu4}: sweep gives {got}, analyze "
                            f"{(report['classification'], report['r1r2'])}")
    later = (walls["serial"] - walls["first"]) / (len(SWEEP_MU4) - 1)
    row = (f"| sym K={SWEEP_K} `services.4.rate` | {(SWEEP_K + 2) ** 2} | {len(SWEEP_MU4)} | "
           f"{'ok' if not failures else 'FAILED'} | {walls['first']:.2f} | "
           f"{walls['serial']:.2f} | {1e3 * later:.1f} |")
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
        print("\n| sweep | S0 | points | checks | first point s | sweep s | "
              "ms per later point |")
        print("|---|---|---|---|---|---|---|")
        row, failures = sweep_smoke(tmp)
        print(row, flush=True)
        for failure in failures:
            sys.stderr.write(f"sweep: {failure}\n")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
