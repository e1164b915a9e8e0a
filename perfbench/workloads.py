"""Workload inputs, the netdrift invocations that use them, and the checks
on their outputs.

Every input is made from the workload seed: the same seed gives the same
files.  Each invocation ("case") feeds one end-to-end metric slot:

  small-models   case1_s = analyze_s: mean over the three models of each
                           model's mean `analyze` wall time
                 case2_s = K sweep seconds per point (1/sweep_k_points_per_s)
                 case3_s = rate sweep seconds per point
                           (1/sweep_rate_points_per_s)
  limited-faces  case1_s = analyze_s.sym_k3   (S0=25)
                 case2_s = analyze_s.asym_k4  (S0=36)
                 case3_s = analyze_s.sym_k6   (S0=64)
  simulate       case1_s = simulate --saturate N, 16 replications at 1250
                 case2_s = simulate --saturate N, 1 replication at 2e4
                           (the same simulated time as case1_s)
                 case3_s = simulate, 2 plain replications at 2e3 with
                           trajectory CSVs

Each slot reads the mean of its groups' runs; see run.slot_values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("small-models", "limited-faces", "simulate")
SLOTS = ("case1_s", "case2_s", "case3_s")

# the README example; its virtual-station threshold rho2 + rho4 = 1 sits
# at mu4 = (p * lam1 + lam3) / (1 - lam1 / mu2) = 0.96
README_MODEL = {
    "arrivals": [{"poisson": 0.8}, {"poisson": 0.4}],
    "services": [{"exponential": 5.0}, {"exponential": 2.4},
                 {"exponential": 5.0}, {"exponential": 2.2}],
    "p": 0.3,
    "discipline": "non_preemptive",
}


def limited_model(K):
    """The symmetric (1,K)-limited model of acceptance criterion 1."""
    return {
        "arrivals": [{"poisson": 1.0}, {"poisson": 1.0}],
        "services": [{"exponential": 5.0}, {"exponential": 1.8},
                     {"exponential": 5.0}, {"exponential": 1.8}],
        "p": 0.0,
        "discipline": {"limited": {"K": K}},
    }


def limited_ratio(K, rho1=0.2, rho2=5.0 / 9.0):
    """Closed-form r1 = r2 of the symmetric limited model."""
    return (rho1 + K * rho2 - 1.0) / (-rho1 + K * (1.0 - rho2))


# the README arrivals and services under the (1,4)-limited discipline: not
# symmetric, so only the numeric table exists.  Verdict and r1*r2 as
# `analyze --mode both --assume-semi-irreducible` reported them at the
# commit that added this benchmark.
ASYM_K4_MODEL = dict(README_MODEL, discipline={"limited": {"K": 4}})
ASYM_K4_VERDICT = "PositiveRecurrent"
ASYM_K4_R1R2 = 0.08023188948471327

EXIT_BY_VERDICT = {"PositiveRecurrent": 0, "Transient": 1, "Inconclusive": 4}


def virtual_load(lam1, lam3, p, mu2, mu4):
    """rho2 + rho4: the priority models are positive recurrent exactly when
    this is below one (acceptance criterion 2)."""
    return lam1 / mu2 + (p * lam1 + lam3) / mu4


def phmap_model(rng):
    """A priority model with MMPP class-1 arrivals, Erlang-2 and
    hyperexponential services; background size S0 = 2*1*4*4 = 32.

    Loads stay at most 0.85 per station, so every face converges at the
    default truncation level, and rho2 + rho4 stays at least 0.08 from one,
    so the verdict is never marginal.
    """
    while True:
        lam1 = rng.uniform(0.5, 0.9)
        switch = rng.uniform(0.5, 2.0)
        spread = rng.uniform(0.2, 0.6)
        lam3 = rng.uniform(0.2, 0.5)
        p = rng.uniform(0.1, 0.4)
        rho2 = rng.uniform(0.25, 0.45)
        mu2 = lam1 / rho2
        mu1 = mu2 * rng.uniform(1.5, 2.5)
        weight = rng.uniform(0.3, 0.7)
        fast = mu2 * rng.uniform(1.5, 3.0)
        # the slow phase rate that makes the mean service time 1 / mu2
        slow = (1.0 - weight) / (1.0 / mu2 - weight / fast)
        rho1 = lam1 / mu1
        rho4 = rng.uniform(0.3, 0.85 - rho1)
        if abs(rho2 + rho4 - 1.0) < 0.08:
            continue
        mu4 = (p * lam1 + lam3) / rho4
        mu3 = mu4 * rng.uniform(1.5, 2.5)
        if rho2 + (p * lam1 + lam3) / mu3 > 0.85:
            continue
        model = {
            "arrivals": [
                {"mmpp": {"switch": [[-switch, switch], [switch, -switch]],
                          "rates": [lam1 * (1 - spread), lam1 * (1 + spread)]}},
                {"poisson": lam3},
            ],
            "services": [
                {"erlang": {"phases": 2, "rate": 2.0 * mu1}},
                {"hyperexponential": {"weights": [weight, 1.0 - weight],
                                      "rates": [fast, slow]}},
                {"exponential": mu3},
                {"exponential": mu4},
            ],
            "p": p,
            "discipline": "non_preemptive",
        }
        return model, virtual_load(lam1, lam3, p, mu2, mu4)


def rate_sweep_values(rng, count=8):
    """Seeded mu4 values on both sides of the README threshold 0.96; the
    lowest keeps station 1's load rho1 + rho4 below one."""
    below = [round(rng.uniform(0.8, 0.92), 4) for _ in range(count // 2)]
    above = [round(rng.uniform(1.0, 2.4), 4) for _ in range(count - count // 2)]
    values = below + above
    rng.shuffle(values)
    return values


# --- cases ---------------------------------------------------------------------

@dataclass
class Case:
    """One netdrift invocation, the metric slot it feeds and its checks."""

    name: str
    argv: list
    slot: str
    group: str            # runs of one group are pooled by their mean
    out: str              # the file or directory given to --out
    checks: object        # callable(Result) -> list of (name, ok, detail)
    units: int = 1        # the slot reads wall time divided by this
    same_as: str = ""     # earlier case whose data files must be identical


@dataclass
class Result:
    case: Case
    code: int | None      # None: killed at the run's deadline
    wall: float           # seconds from spawn to exit
    timing: float         # `wall` scaled by the vCPU's speed (run.Sentinel)
    out: Path
    stderr: str


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def _read_csv_rows(path):
    """Data rows of a sweep CSV (value,r1,r2,r1r2,classification,note), or
    None when the file is missing or a row is malformed."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return None
    rows = [line.split(",", 5) for line in lines[1:]]
    return rows if all(len(row) == 6 for row in rows) else None


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _close(a, b, rel):
    return a is not None and b is not None and abs(a - b) <= rel * abs(b)


def check_analyze(expected, r1r2=None, rel=1e-12, closed=True,
                  certificate=False):
    """Checks on one `analyze --out` report."""

    def run(res):
        rep = _read_json(res.out)
        if rep is None:
            return [("report", False, "no JSON report")]
        verdict = rep.get("classification")
        items = [
            ("exit code", res.code == EXIT_BY_VERDICT.get(expected),
             f"exit {res.code} for {verdict}"),
            ("verdict", verdict == expected, f"{verdict}, expected {expected}"),
        ]
        cross = (rep.get("driftTable") or {}).get("crossCheck")
        if closed:
            items.append(("closed-vs-numeric cross-check",
                          bool(cross and cross.get("ok") is True),
                          f"worst {cross and cross.get('worst')!r}"))
        if r1r2 is not None:
            items.append(("r1r2", _close(rep.get("r1r2"), r1r2, rel),
                          f"{rep.get('r1r2')!r}, expected {r1r2!r}"))
        if certificate:
            spiral = rep.get("spiralPath") or {}
            items.append(("certificate", rep.get("certificate") is not None, ""))
            items.append(("spiral contraction = r1r2",
                          _close(spiral.get("contraction"), rep.get("r1r2"), 1e-10),
                          f"{spiral.get('contraction')!r}"))
        return items

    return run


def check_k_sweep(values):
    def run(res):
        rows = _read_csv_rows(res.out)
        if rows is None or len(rows) != len(values):
            return [("K sweep rows", False, f"{rows and len(rows)} rows")]
        items = [("exit code", res.code == 0, f"exit {res.code}")]
        for row, K in zip(rows, values):
            expected = "PositiveRecurrent" if K <= 5 else "Transient"
            items.append((f"K={K} verdict", row[4] == expected, row[4]))
            items.append((f"K={K} r1r2 = limited_ratio(K)**2",
                          _close(_float(row[3]), limited_ratio(K) ** 2, 1e-12), row[3]))
        return items

    return run


def check_rate_sweep(values):
    m = README_MODEL
    lam1, lam3 = m["arrivals"][0]["poisson"], m["arrivals"][1]["poisson"]
    mu2 = m["services"][1]["exponential"]

    def run(res):
        rows = _read_csv_rows(res.out)
        if rows is None or len(rows) != len(values):
            return [("rate sweep rows", False, f"{rows and len(rows)} rows")]
        items = [("exit code", res.code == 0, f"exit {res.code}")]
        for row, mu4 in zip(rows, values):
            stable = virtual_load(lam1, lam3, m["p"], mu2, mu4) < 1.0
            expected = "PositiveRecurrent" if stable else "Transient"
            items.append((f"mu4={mu4} verdict", row[4] == expected, row[4]))
        return items

    return run


def check_simulate(replications, saturated):
    def run(res):
        summary = _read_json(Path(res.out) / "summary.json")
        if summary is None:
            return [("summary", False, "no summary.json")]
        reps = summary.get("perReplication") or []
        items = [
            ("exit code", res.code == 0, f"exit {res.code}"),
            ("replications", len(reps) == replications, f"{len(reps)}"),
            ("events", all(r.get("events", 0) > 0 for r in reps), ""),
        ]
        csvs = list(Path(res.out).glob("trajectory_*.csv"))
        items.append(("trajectory files", len(csvs) == replications, f"{len(csvs)}"))
        if saturated:
            agreement = summary.get("agreement") or []
            items.append(("saturated agreement",
                          len(agreement) == 4
                          and all(a.get("ok") is True for a in agreement),
                          json.dumps([a.get("ok") for a in agreement])))
        return items

    return run


def events_of(res):
    """Simulated events in a simulate case's output."""
    summary = _read_json(Path(res.out) / "summary.json") or {}
    return sum(r.get("events", 0) for r in summary.get("perReplication") or [])


def _write(path, payload):
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return str(path)


def build(workload, seed, inputs: Path):
    """Write the workload's input files under `inputs` and return
    (model files for the set-up probe, cases in run order, facts).

    Input paths in the cases are absolute; --out paths are relative to the
    directory each pass runs in."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "small-models":
        readme = _write(inputs / "readme.json", README_MODEL)
        preempt = _write(inputs / "readme_preemptive.json",
                         dict(README_MODEL, discipline="preemptive_resume"))
        phmap, load = phmap_model(rng)
        phmap_file = _write(inputs / "phmap.json", phmap)
        phmap_verdict = "PositiveRecurrent" if load < 1.0 else "Transient"
        limited = _write(inputs / "limited_k2.json", limited_model(2))
        k_values = list(range(2, 9))
        k_sweep = _write(inputs / "sweep_k.json",
                         {"parameter": "discipline.K", "values": k_values})
        mu4s = rate_sweep_values(rng)
        rate_sweep = _write(inputs / "sweep_rate.json",
                            {"parameter": "services.4.rate", "values": mu4s})
        r_readme = 0.3111111111111111  # closed form, rho2 + rho4 = 0.624
        cert = ["--certificate", "--spiral"]
        # analyses and sweeps alternate so that each slot's runs are spread
        # over the pass and a few seconds of machine contention do not land
        # on one slot; the reruns are byte-stability checks that also give
        # their slots a second sample
        readme_check = check_analyze("PositiveRecurrent", r_readme, certificate=True)

        def k_case(i):
            return Case(f"sweep.k{i}", ["sweep", limited, k_sweep, "--out", f"sweep_k{i}.csv"],
                        "case2_s", "sweep_k", f"sweep_k{i}.csv", check_k_sweep(k_values),
                        units=len(k_values), same_as="sweep.k1" if i > 1 else "")

        def rate_case(i):
            return Case(f"sweep.rate{i}",
                        ["sweep", readme, rate_sweep, "--out", f"sweep_rate{i}.csv"],
                        "case3_s", "sweep_rate", f"sweep_rate{i}.csv",
                        check_rate_sweep(mu4s), units=len(mu4s),
                        same_as="sweep.rate1" if i > 1 else "")

        cases = [
            Case("analyze.readme1", ["analyze", readme, *cert, "--out", "readme1.json"],
                 "case1_s", "readme", "readme1.json", readme_check),
            k_case(1),
            Case("analyze.readme_preemptive", ["analyze", preempt, "--out", "preempt.json"],
                 "case1_s", "preempt", "preempt.json",
                 check_analyze("PositiveRecurrent", r_readme)),
            rate_case(1),
            Case("analyze.phmap", ["analyze", phmap_file, "--out", "phmap.json"],
                 "case1_s", "phmap", "phmap.json", check_analyze(phmap_verdict)),
            k_case(2),
            Case("analyze.readme2", ["analyze", readme, *cert, "--out", "readme2.json"],
                 "case1_s", "readme", "readme2.json", readme_check,
                 same_as="analyze.readme1"),
            rate_case(2),
        ]
        facts = {"phmap_virtual_load": load, "rate_sweep_mu4": mu4s}
        return [readme, preempt, phmap_file, limited], cases, facts
    if workload == "limited-faces":
        # fixed models: their sizes are the point, so the seed does not
        # change them.  K=3 stands in for K=2, whose L=32 tail just misses
        # TAIL_TOL and is rebuilt at L=64: that one model takes 27-35 s, too
        # much of a run's time budget.  S0 = 25, 36 and 64 still straddle
        # the size where the face-solver candidates swap order.
        k3 = _write(inputs / "sym_k3.json", limited_model(3))
        k6 = _write(inputs / "sym_k6.json", limited_model(6))
        asym = _write(inputs / "asym_k4.json", ASYM_K4_MODEL)
        flags = ["--mode", "both", "--assume-semi-irreducible"]
        cases = [
            Case("analyze.sym_k3", ["analyze", k3, *flags, "--out", "sym_k3.json"],
                 "case1_s", "sym_k3", "sym_k3.json",
                 check_analyze("PositiveRecurrent", limited_ratio(3) ** 2)),
            Case("analyze.asym_k4", ["analyze", asym, *flags, "--out", "asym_k4.json"],
                 "case2_s", "asym_k4", "asym_k4.json",
                 check_analyze(ASYM_K4_VERDICT, ASYM_K4_R1R2, rel=1e-4, closed=False)),
            Case("analyze.sym_k6", ["analyze", k6, *flags, "--out", "sym_k6.json"],
                 "case3_s", "sym_k6", "sym_k6.json",
                 check_analyze("Transient", limited_ratio(6) ** 2)),
        ]
        return [k3, asym, k6], cases, {}
    if workload == "simulate":
        readme = _write(inputs / "readme.json", README_MODEL)
        seeds = [rng.randrange(1, 2 ** 31) for _ in range(3)]
        plain = ["simulate", readme, "--replications", "2", "--horizon", "2000",
                 "--seed", str(seeds[2])]
        # many short replications and one long one over the same simulated
        # time (about 116k events each): batching replications should speed
        # up the first and must not slow the second
        sat16 = ["simulate", readme, "--saturate", "N", "--replications", "16",
                 "--horizon", "1250", "--seed", str(seeds[0])]
        long = ["simulate", readme, "--saturate", "N", "--replications", "1",
                "--horizon", "20000", "--seed", str(seeds[1])]
        # the plain case runs twice with the same seed: a byte-stability
        # check that also gives its slot a second sample
        cases = [
            Case("simulate.plain_2x2e3.1", [*plain, "--out", "plain1"],
                 "case3_s", "plain", "plain1", check_simulate(2, False)),
            Case("simulate.saturated_16x1250", [*sat16, "--out", "sat16"],
                 "case1_s", "sat16", "sat16", check_simulate(16, True)),
            Case("simulate.plain_2x2e3.2", [*plain, "--out", "plain2"],
                 "case3_s", "plain", "plain2", check_simulate(2, False),
                 same_as="simulate.plain_2x2e3.1"),
            Case("simulate.saturated_1x2e4", [*long, "--out", "long"],
                 "case2_s", "long", "long", check_simulate(1, True)),
        ]
        return [readme], cases, {"simulation_seeds": seeds}
    raise ValueError(f"unknown workload {workload!r}")


def data_files(out: Path):
    """The data files of an --out target, without the .meta.json sidecars
    (those carry timestamps by design)."""
    if out.is_dir():
        files = sorted(p for p in out.iterdir() if not p.name.endswith(".meta.json"))
    else:
        files = [out] if out.exists() else []
    return files


def same_bytes(a: Path, b: Path):
    """Whether two --out targets hold byte-identical data files."""
    fa, fb = data_files(a), data_files(b)
    if not fa or len(fa) != len(fb):
        return False, f"{len(fa)} vs {len(fb)} data files"
    if a.is_dir() and [p.name for p in fa] != [p.name for p in fb]:
        return False, "file names differ"
    for x, y in zip(fa, fb):
        if x.read_bytes() != y.read_bytes():
            return False, f"{x.name} differs"
    return True, f"{len(fa)} file(s) identical"
