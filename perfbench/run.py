"""Benchmark of the netdrift command line, end to end and layer by layer.

    python3 perfbench/run.py --workload small-models --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it needs ``src/netdrift`` there
and nothing installed.  A closed loop with one client: each ``netdrift``
invocation is a child process started only after the previous one ended,
with BLAS/OpenMP threads capped at BLAS_THREADS, pinned to one vCPU.
Every timing is the child's wall time, less the time the hypervisor kept
that vCPU from running, scaled by the speed of that vCPU while the child
ran, as a sentinel thread measures it (see Sentinel).

A run makes one pass over the workload's invocations, with the set-up
probes (SETUP_REPEATS children that import netdrift and parse the
workload's models) spread over it.  Untraced, it then reruns single
invocations, always one of the least-sampled groups whose last run still
fits, until ``--seconds`` have elapsed since the run began; each group's
timing is the mean of its runs (see ``slot_values``).  Traced, it repeats
whole passes while one more fits in ``--seconds``.  Every output is
checked.  With ``--trace 0`` the invocations run as ``python -m
netdrift.cli`` and the end-to-end metrics are reported; with ``--trace 1``
they run under perfbench/tracer.py and the per-layer metrics are reported
instead.  ``--workload all`` runs every workload, untraced and then traced,
and so prints every metric.

The last line of standard output is one JSON object: correct, attempted,
failed (checks) and metrics ({name: {value, unit}}).  The lines before it
print every metric by name with its unit, the environment and, for traced
runs, where the time went.  Full results, spans included, go to
``.perfbench/results/``.  Under ``--workload all`` the peak resident set is
the largest over every workload run so far.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import traces
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = HERE / "tracer.py"

BLAS_THREADS = 1
# set-up children per run, spread over the first pass so that one burst of
# machine contention cannot reach most of them
SETUP_REPEATS = 3
# the whole run must end within 180 s; children share what is left
RUN_DEADLINE_S = 170.0

# The machine this benchmark was written on (2 vCPUs of a shared Intel Xeon
# host) runs each vCPU at one of two speeds about 1.8x apart, switching
# every few seconds whatever runs on it, so the same work's wall time
# spread by a quarter between runs; at times the hypervisor also kept a
# vCPU from running for most of a minute.  The sentinel times a chunk of
# SENTINEL_STEPS event-loop steps every SENTINEL_PERIOD_S on the children's
# vCPU; a child's timing is its wall time less that vCPU's steal time over
# the same span, times the mean of NOMINAL_CHUNK_S over those chunk times
# while it ran: seconds at the vCPU speed at which one chunk takes
# NOMINAL_CHUNK_S (about that machine's fast speed).
SENTINEL_STEPS = 1500
SENTINEL_PERIOD_S = 0.1
NOMINAL_CHUNK_S = 0.0016

SETUP_CODE = (
    "import sys\n"
    "from netdrift.cli import load_model\n"
    "for path in sys.argv[1:]:\n"
    "    load_model(path)\n"
)

END_TO_END = [
    ("setup_s", "s"),
    ("case1_s", "s"),
    ("case2_s", "s"),
    ("case3_s", "s"),
    ("peak_rss_mb", "MB"),
]

# what each slot is called in the workload's own terms, for the report
ALIASES = {
    "small-models": {"case1_s": "analyze_s", "case2_s": "1/sweep_k_points_per_s",
                     "case3_s": "1/sweep_rate_points_per_s"},
    "limited-faces": {"case1_s": "analyze_s.sym_k3", "case2_s": "analyze_s.asym_k4",
                      "case3_s": "analyze_s.sym_k6"},
    "simulate": {"case1_s": "saturated N, 16 x 1250", "case2_s": "saturated N, 1 x 2e4",
                 "case3_s": "plain, 2 x 2e3, CSVs"},
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _chunk():
    """Interpreter-bound work like the simulator's event loop: heap
    operations, random draws and dict updates.  (A tight arithmetic loop
    slowed less than the netdrift children did when the vCPU slowed.)"""
    rng = random.Random(7)
    heap = [(rng.random(), k) for k in range(64)]
    heapq.heapify(heap)
    counts = {}
    for _ in range(SENTINEL_STEPS):
        t, k = heapq.heappop(heap)
        counts[k & 15] = counts.get(k & 15, 0) + 1
        heapq.heappush(heap, (t + rng.expovariate(1.0), k))
    return counts


class Sentinel:
    """A thread pinned to `cpu` that times a fixed chunk of pure-Python
    work every SENTINEL_PERIOD_S.  It reads its own thread CPU time, so the
    children it shares the vCPU with do not count, only the vCPU's speed."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.samples = []          # (monotonic time at the chunk's end, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.is_set():
            t0 = time.thread_time()
            _chunk()
            self.samples.append((time.monotonic(), time.thread_time() - t0))
            self._stop.wait(SENTINEL_PERIOD_S)

    def stop(self):
        self._stop.set()
        self._thread.join()

    def speed(self, start, end):
        """The mean of NOMINAL_CHUNK_S / chunk time over the chunks that
        ended between `start` and one period after `end`, or the last one
        before `end` when none did."""
        chunks = [dt for t, dt in self.samples if start <= t <= end + SENTINEL_PERIOD_S]
        if not chunks:
            chunks = [dt for t, dt in self.samples if t <= end][-1:] or [NOMINAL_CHUNK_S]
        return statistics.fmean(NOMINAL_CHUNK_S / dt for dt in chunks)


def steal_s(cpu):
    """Seconds the hypervisor has kept vCPU `cpu` from running since boot
    (the steal column of /proc/stat); 0 where that is not reported."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    fields = line.split()
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0
    except (OSError, ValueError):
        pass
    return 0.0


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()


def run_child(cmd, cwd, deadline, sentinel):
    """Run one child, pinned to the sentinel's vCPU, to completion; returns
    (code, spawn, exit, stdout, stderr, timing), timing being the wall time
    less the vCPU's steal time, scaled by the vCPU's speed.  A child still
    running at the deadline is killed and reported with code None."""
    allowed = os.sched_getaffinity(0)
    stolen = steal_s(sentinel.cpu)
    spawn = time.monotonic()
    # the child inherits the affinity of the thread that starts it
    os.sched_setaffinity(0, {sentinel.cpu})
    try:
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
    finally:
        os.sched_setaffinity(0, allowed)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline.left()))
        code = proc.returncode
    except subprocess.TimeoutExpired as exc:
        proc.kill()
        proc.communicate()
        code, out, err = None, "", str(exc)
    done = time.monotonic()
    stolen = steal_s(sentinel.cpu) - stolen
    return code, spawn, done, out, err, (done - spawn - stolen) * sentinel.speed(spawn, done)


class Setup:
    """The set-up probe: a child that imports netdrift and parses the
    workload's models, then exits."""

    def __init__(self, model_files, cwd):
        self.cmd = [sys.executable, "-c", SETUP_CODE, *model_files]
        self.cwd = cwd
        self.times = []

    def measure(self, deadline, sentinel, checks):
        code, _, _, _, err, timing = run_child(self.cmd, self.cwd, deadline, sentinel)
        checks.append(("setup", "import and parse exit 0", code == 0, err.strip()[-200:]))
        self.times.append(timing)


def run_case(case, run_dir, trace, deadline, sentinel, checks):
    """Run one case in `run_dir`; returns its Result and, when traced, its
    traced process (None when untraced or its spans are unreadable)."""
    if trace:
        spans_file = run_dir / f"{case.name}.spans"
        cmd = [sys.executable, "-X", "importtime", str(TRACER), str(spans_file),
               *case.argv]
    else:
        cmd = [sys.executable, "-m", "netdrift.cli", *case.argv]
    code, spawn, done, _, err, timing = run_child(cmd, run_dir, deadline, sentinel)
    res = wl.Result(case, code, done - spawn, timing, run_dir / case.out, err)
    process = None
    if trace:
        try:
            process = traces.Process(case.name, spawn, done, spans_file, err)
        except (OSError, ValueError) as exc:
            checks.append((case.name, "spans written", False, str(exc)))
    return res, process


def run_pass(cases, pass_dir, trace, deadline, sentinel, checks, setup=None):
    """Run every case once; returns results by case name and, when traced,
    the traced processes.  With `setup`, SETUP_REPEATS set-up probes run
    evenly spaced between the cases."""
    pass_dir.mkdir(parents=True)
    results, processes = {}, []
    before = [0] * (len(cases) + 1)
    if setup is not None:
        for k in range(SETUP_REPEATS):
            before[(k * len(cases)) // SETUP_REPEATS] += 1
    for i, case in enumerate(cases):
        for _ in range(before[i]):
            setup.measure(deadline, sentinel, checks)
        res, process = run_case(case, pass_dir, trace, deadline, sentinel, checks)
        results[case.name] = res
        if process is not None:
            processes.append(process)
        if res.code is None:
            break
    return results, processes


def run_extras(cases, first, work, seconds, started, deadline, sentinel, checks):
    """Untraced samples after the first pass: each time, one of the groups
    with the fewest samples whose last run still fits in what is left of
    `seconds`, rerun by the group's first case.  Returns the Results."""
    reps, walls = {}, {}
    for case in cases:
        reps.setdefault(case.group, case)
        res = first.get(case.name)
        if res is not None and res.code is not None:
            walls.setdefault(case.group, []).append(res.wall)
    extras = []
    while True:
        left = min(seconds - (time.monotonic() - started), deadline.left())
        fits = [g for g in reps if g in walls and walls[g][-1] <= left]
        if not fits:
            return extras
        group = min(fits, key=lambda g: len(walls[g]))
        case = reps[group]
        run_dir = work / f"extra{len(extras) + 1}"
        run_dir.mkdir(parents=True)
        res, _ = run_case(case, run_dir, False, deadline, sentinel, checks)
        check_pass([case], {case.name: res}, checks)
        extras.append(res)
        if res.code is None:
            return extras
        walls[group].append(res.wall)


def check_pass(cases, results, checks):
    for case in cases:
        res = results.get(case.name)
        if res is None or res.code is None:
            checks.append((case.name, "finished before the deadline", False, ""))
            continue
        for name, ok, detail in case.checks(res):
            if not ok and res.stderr.strip():
                detail = f"{detail}; stderr: {res.stderr.strip()[-300:]}"
            checks.append((case.name, name, bool(ok), detail))
        if case.same_as:
            ok, detail = wl.same_bytes(results[case.same_as].out, res.out)
            checks.append((case.name, f"data files byte-identical to {case.same_as}",
                           ok, detail))


def group_times(results):
    """Per (slot, group), the scaled time per unit of work of each finished
    run."""
    groups = {}
    for res in results:
        if res.code is not None:
            groups.setdefault((res.case.slot, res.case.group), []).append(
                res.timing / res.case.units)
    return groups


def slot_values(results):
    """Per slot: the mean over its groups of each group's mean scaled run
    time per unit, and the number of runs behind it."""
    by_slot = {}
    for (slot, _), walls in group_times(results).items():
        by_slot.setdefault(slot, []).append(walls)
    return {slot: (statistics.fmean(map(statistics.fmean, groups)),
                   sum(map(len, groups)))
            for slot, groups in by_slot.items()}


def environment(workload, seed, trace):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit or "unknown (not a git checkout)",
        "platform": platform.platform(),
    }


def run_passes(cases, work, seconds, trace, setup, started, deadline, sentinel, checks):
    """The first pass and, when traced, further passes while one more of
    the last one's length fits in `seconds`; returns [(results, traced
    processes, wall time)]."""
    passes = []
    while not passes or (trace and time.monotonic() - started + passes[-1][2] <= seconds
                         and deadline.left() > 1.5 * passes[-1][2]):
        t0 = time.monotonic()
        results, processes = run_pass(cases, work / f"pass{len(passes) + 1}", trace,
                                      deadline, sentinel, checks,
                                      None if passes else setup)
        wall = time.monotonic() - t0
        check_pass(cases, results, checks)
        passes.append((results, processes, wall))
        if any(r.code is None for r in results.values()):
            break
    return passes


def end_to_end(results, setup):
    """The END_TO_END metrics and their sample counts."""
    slots = slot_values(results)
    values = {
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup.times), "peak_rss_mb": 1}
    for slot in wl.SLOTS:
        values[slot], samples[slot] = slots.get(slot, (0.0, 0))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, samples


def per_layer(passes, lines, record):
    """The per-layer metrics (median over passes) plus, for the first pass,
    the table of where the time went and every span."""
    per_pass = [traces.per_layer_metrics(procs) for _, procs, _ in passes if procs]
    metrics = {name: {"value": statistics.median(p[name] for p in per_pass)
                      if per_pass else 0.0, "unit": unit}
               for name, unit in traces.PER_LAYER}
    _, procs, wall = passes[0]
    table = traces.where_time_went(procs, wall)
    lines.append(f"where the time went (pass 1, traced, {wall:.3f} s):")
    lines += [f"  {name:32s} {secs:9.3f} s  {share:6.1%}" for name, secs, share in table]
    covered = sum(p.wall for p in procs)
    self_sum = sum(s["self"] for p in procs for s in p.spans)
    overhead = sum(p.overhead for p in procs)
    lines.append(f"self times sum to {self_sum:.3f} s of {covered:.3f} s traced process "
                 f"wall (unattributed {covered - self_sum:.6f} s); tracer overhead "
                 f"{overhead:.3f} s")
    missing = sorted({m for p in procs for m in p.missing})
    if missing:
        lines.append(f"trace targets not found: {', '.join(missing)}")
    record["where_time_went"] = table
    record["spans"] = traces.span_records(procs)
    return metrics


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns (summary, report lines)."""
    deadline = Deadline(RUN_DEADLINE_S)
    work = WORK / f"work-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    model_files, cases, facts = wl.build(workload, seed, work / "inputs")
    checks = []
    setup = None if trace else Setup(model_files, work)
    sentinel = Sentinel(max(os.sched_getaffinity(0)))
    started = time.monotonic()
    try:
        passes = run_passes(cases, work, seconds, trace, setup, started, deadline,
                            sentinel, checks)
        extras = [] if trace else run_extras(cases, passes[0][0], work, seconds, started,
                                             deadline, sentinel, checks)
    finally:
        sentinel.stop()

    env = environment(workload, seed, trace)
    lines = [f"# netdrift benchmark: workload {workload}, seed {seed}, trace {trace}"]
    lines += [f"env {k} = {v}" for k, v in env.items()]
    lines += [f"input {k} = {v}" for k, v in facts.items()]
    speeds = [NOMINAL_CHUNK_S / dt for _, dt in sentinel.samples]
    lines.append(f"sentinel vCPU {sentinel.cpu}: {len(speeds)} chunks, speed "
                 f"{min(speeds):.3f}-{max(speeds):.3f} of nominal, mean "
                 f"{statistics.fmean(speeds):.3f}")
    record = {"env": env, "inputs": facts, "passes": [],
              "sentinel": {"cpu": sentinel.cpu, "samples": sentinel.samples}}
    for i, (results, _, wall) in enumerate(passes, start=1):
        lines.append(f"pass {i}: {wall:.3f} s"
                     + (" (set-up probes included)" if i == 1 and setup else ""))
        for res in results.values():
            lines.append(f"  {res.case.name:32s} exit {res.code}  {res.wall:8.3f} s wall"
                         f"  {res.timing:8.3f} s scaled"
                         + (f"  ({res.case.units} units)" if res.case.units > 1 else ""))
        record["passes"].append({"wall_s": wall, "cases": {
            n: {"exit": r.code, "wall_s": r.wall, "scaled_s": r.timing}
            for n, r in results.items()}})
    if extras:
        lines.append(f"extra runs: {len(extras)}")
        lines += [f"  {r.case.name:32s} exit {r.code}  {r.wall:8.3f} s wall"
                  f"  {r.timing:8.3f} s scaled" for r in extras]
        record["extras"] = [{"case": r.case.name, "exit": r.code, "wall_s": r.wall,
                             "scaled_s": r.timing} for r in extras]

    samples = {}
    if trace:
        metrics = per_layer(passes, lines, record)
    else:
        runs = [r for results, _, _ in passes for r in results.values()] + extras
        metrics, samples = end_to_end(runs, setup)
        lines += group_lines(runs)
        lines += derived_lines(workload, runs)
        record["samples"] = samples

    failed = [c for c in checks if not c[2]]
    lines += [f"CHECK FAILED {case}: {name}: {detail}" for case, name, _, detail in failed]
    lines.append(f"checks: {len(checks) - len(failed)} of {len(checks)} passed; "
                 f"fail_frac = {len(failed) / max(1, len(checks)):.4f} ratio")
    for name, m in metrics.items():
        alias = ALIASES[workload].get(name, "")
        lines.append(f"metric {name} = {m['value']!r} {m['unit']}"
                     + (f"  (n={samples[name]})" if name in samples else "")
                     + (f"  [{alias}]" if alias else ""))
    summary = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
               "metrics": metrics}
    record.update(summary)
    record["checks"] = [{"case": c, "check": n, "ok": ok, "detail": d}
                        for c, n, ok, d in checks]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return summary, lines


def group_lines(runs):
    """Each group's mean, fastest, median and slowest scaled run per unit
    of work, and its mean unscaled wall time per unit."""
    lines = []
    for (slot, group), times in group_times(runs).items():
        mine = [r for r in runs if r.code is not None and r.case.group == group]
        wall = statistics.fmean(r.wall / r.case.units for r in mine)
        lines.append(f"group {slot} {group}: mean {statistics.fmean(times):.4f} s, "
                     f"fastest {min(times):.4f} s, median "
                     f"{statistics.median(times):.4f} s, slowest {max(times):.4f} s "
                     f"per unit, scaled; wall mean {wall:.4f} s (n={len(times)})")
    return lines


def derived_lines(workload, runs):
    """The workload's headline figures in their own units: points or events
    over the summed scaled time of the runs that made them."""
    lines = []
    runs = [r for r in runs if r.code is not None]
    if workload == "small-models":
        for prefix in ("sweep.k", "sweep.rate"):
            mine = [r for r in runs if r.case.name.startswith(prefix)]
            if mine:
                rate = sum(r.case.units for r in mine) / sum(r.timing for r in mine)
                lines.append(f"derived {prefix} points_per_s = {rate!r} 1/s (n={len(mine)})")
    if workload == "simulate":
        for prefix in ("simulate.saturated_16x1250", "simulate.saturated_1x2e4"):
            mine = [r for r in runs if r.case.name.startswith(prefix)]
            if mine:
                rate = sum(map(wl.events_of, mine)) / sum(r.timing for r in mine)
                lines.append(f"derived {prefix} events_per_s = {rate!r} 1/s "
                             f"(whole process, import included; n={len(mine)})")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "netdrift" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no netdrift sources at {SRC}; run from a "
                         "source checkout\n")
        return 2
    if args.workload != "all":
        summary, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(summary))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for name in wl.WORKLOADS:
            summary, lines = run_workload(name, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            combined["metrics"].update(
                {f"{name}/{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
