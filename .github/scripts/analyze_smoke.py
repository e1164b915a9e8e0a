"""Smoke-run `netdrift analyze --mode both --assume-semi-irreducible` on the
two symmetric (1,K)-limited models either side of `QBD_PHASES`: the largest
whose solved faces are all QBDs, and the first whose solved faces are all
boxes; then the first of them again with every face forced onto its box
(`QBD_PHASES` = 0, as the tests set it).  All are transient.  Then on the
README rates under (1,12)-limited service (S0 = 196), which is positive
recurrent and not symmetric: it checks the closed form of an asymmetric
limited model against numeric faces solved as QBDs, at a size no
benchmark workload runs.  Each run must exit with its verdict's code, pass
the closed-form cross-check, read faces 14 and 23 off their sub-faces (a
`decomposed` diagnostic and an empty `history`) and take the expected
solver paths on the faces it solves (`qbd` on every face but N; `ilu-gmres`
alone on every face but N past the cap, as one size rule holds for every
face; no `qbd` when forced).  The all-QBD sym run must peak no higher than
its forced box run: the premise of the cap.  Prints one Markdown table row
per run with S0 times the start level (the phases `QBD_PHASES` bounds), its
wall time and peak RSS (`os.wait4` of the child); exits 1 after the runs if
any check failed.

usage: python .github/scripts/analyze_smoke.py >> "$GITHUB_STEP_SUMMARY"
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the benchmark's symmetric limited model and README rates
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from workloads import README_MODEL, limited_model  # noqa: E402


# `netdrift` in a child that first sets QBD_PHASES when given a value
CHILD = ("import sys, netdrift.induced_chains as ic\n"
         "if sys.argv[1]: ic.QBD_PHASES = int(sys.argv[1])\n"
         "from netdrift.cli import main\n"
         "sys.exit(main(sys.argv[2:]))")


def smoke(name, model, face_phases, want_code, want_paths, tmp, qbd_phases=""):
    """One `analyze` run: its table row, the list of its failures and its
    peak RSS in MB."""
    path, out = os.path.join(tmp, "model.json"), os.path.join(tmp, "out.json")
    with open(path, "w") as fh:
        json.dump(model, fh)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", CHILD, str(qbd_phases), "analyze", path,
                              "--mode", "both", "--assume-semi-irreducible", "--out", out])
    _, status, usage = os.wait4(child.pid, 0)
    wall, code = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
    failures = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
    paths = {}
    if os.path.exists(out):
        with open(out) as fh:
            table = json.load(fh)["driftTable"]
        # the next run writes to the same path; a stale report must not pass it
        os.remove(out)
        if (table["crossCheck"] or {}).get("ok") is not True:
            failures.append(f"cross-check failed: {table['crossCheck']}")
        # the solver of every level tried on every face but N, in order
        paths = dict.fromkeys(h[3] for face in table["numeric"] if face["subset"] != [1, 2, 3, 4]
                              for h in face["diagnostics"]["history"])
        for face in table["numeric"]:
            diag = face["diagnostics"]
            if face["subset"] in ([1, 4], [2, 3]) and (diag["history"] or "decomposed" not in diag):
                failures.append(f"face {face['subset']} not decomposed: {diag.get('note')}")
    else:
        failures.append("no report written")
    if not want_paths(set(paths)):
        failures.append(f"face solver paths {sorted(paths)}")
    rss = usage.ru_maxrss / 1024
    forced = ", box forced" if qbd_phases != "" else ""
    row = (f"| {name}{forced} | {face_phases} | {code} | {wall:.2f} | "
           f"{rss:.1f} | {', '.join(paths)} |")
    return row, failures, rss


def main():
    # read in a child, as a forked child's peak RSS starts at its parent's
    qbd_phases, start = map(int, subprocess.check_output([sys.executable, "-c", (
        "from netdrift.induced_chains import QBD_PHASES, START_LEVEL; "
        "print(QBD_PHASES, START_LEVEL)")]).split())
    # a symmetric (1,K)-limited model has (K + 2)^2 background states, and
    # QBD_PHASES bounds START_LEVEL times that
    qbd_k = max(K for K in range(1, 64) if start * (K + 2) ** 2 <= qbd_phases)
    def only_qbd(paths):
        return paths == {"qbd"}

    runs = [(f"sym K={K}", limited_model(K), start * (K + 2) ** 2, 1, want, phases)
            for K, want, phases in (
                (qbd_k, only_qbd, ""),
                (qbd_k + 1, lambda paths: paths == {"ilu-gmres"}, ""),
                (qbd_k, lambda paths: "ilu-gmres" in paths and "qbd" not in paths, 0))]
    runs.append(("README rates, K=12", dict(README_MODEL, discipline={"limited": {"K": 12}}),
                 start * 14 ** 2, 0, only_qbd, ""))
    print("| model | S0 x start level | exit | wall s | peak RSS MB | face paths |")
    print("|---|---|---|---|---|---|")
    failed, rss = False, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, model, face_phases, want_code, want_paths, phases in runs:
            row, failures, peak = smoke(name, model, face_phases, want_code, want_paths, tmp,
                                        phases)
            print(row, flush=True)
            rss.append(peak)
            for failure in failures:
                sys.stderr.write(f"{name}: {failure}\n")
            failed = failed or bool(failures)
    if rss[0] > rss[2]:
        sys.stderr.write(f"sym K={qbd_k}: the all-QBD run peaked at {rss[0]:.1f} MB, above "
                         f"its box run's {rss[2]:.1f} MB\n")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
