"""Smoke-run `netdrift analyze --mode both --assume-semi-irreducible` on the
two symmetric (1,K)-limited models either side of `QBD_PHASES`: the largest
whose faces are all solved as QBDs, and the first whose 2-D faces are solved
on boxes.  Both are transient.  Each run must exit 1, pass the closed-form
cross-check and take the expected solver paths (`qbd` on every face but N,
and `ilu-gmres` on some box face).  Prints one Markdown table row per run
with its wall time and peak RSS (`os.wait4` of the child); exits 1 after
both runs if either failed.

usage: python .github/scripts/analyze_smoke.py >> "$GITHUB_STEP_SUMMARY"
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


def smoke(K, all_qbd, tmp):
    """One `analyze` run: its table row and the list of its failures."""
    model, out = os.path.join(tmp, f"sym_k{K}.json"), os.path.join(tmp, f"sym_k{K}.out.json")
    with open(model, "w") as fh:
        json.dump(limited_model(K), fh)
    start = time.perf_counter()
    child = subprocess.Popen(["netdrift", "analyze", model, "--mode", "both",
                              "--assume-semi-irreducible", "--out", out])
    _, status, usage = os.wait4(child.pid, 0)
    wall, code = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
    failures = [] if code == 1 else [f"exit code {code}, expected 1 (Transient)"]
    paths = {}
    if os.path.exists(out):
        with open(out) as fh:
            table = json.load(fh)["driftTable"]
        if table["crossCheck"]["ok"] is not True:
            failures.append(f"cross-check failed: {table['crossCheck']}")
        # the solver of every level tried on every face but N, in order
        paths = dict.fromkeys(h[3] for face in table["numeric"] if face["subset"] != [1, 2, 3, 4]
                              for h in face["diagnostics"]["history"])
    else:
        failures.append("no report written")
    want = (set(paths) == {"qbd"}) if all_qbd else ("ilu-gmres" in paths)
    if not want:
        failures.append(f"face solver paths {sorted(paths)}")
    row = (f"| sym K={K} | {4 * (K + 2) ** 2} | {code} | {wall:.2f} | "
           f"{usage.ru_maxrss / 1024:.1f} | {', '.join(paths)} |")
    return row, failures


def main():
    # read in a child, as a forked child's peak RSS starts at its parent's
    qbd_phases = int(subprocess.check_output([sys.executable, "-c", (
        "from netdrift.induced_chains import QBD_PHASES; print(QBD_PHASES)")]))
    # a symmetric (1,K)-limited model has (K + 2)^2 background states, and a
    # 2-D face starts with 4 levels of them as its QBD phases
    qbd_k = max(K for K in range(1, 64) if 4 * (K + 2) ** 2 <= qbd_phases)
    print("| model | 2-D face phases | exit | wall s | peak RSS MB | face paths |")
    print("|---|---|---|---|---|---|")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for K in (qbd_k, qbd_k + 1):
            row, failures = smoke(K, K == qbd_k, tmp)
            print(row, flush=True)
            for failure in failures:
                sys.stderr.write(f"sym K={K}: {failure}\n")
            failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
