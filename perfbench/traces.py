"""Per-layer metrics from the spans of traced netdrift processes.

Each traced process contributes a root span "process" (spawn to exit, as
the benchmark measured it) whose children are the spans written by
tracer.py.  A span's self time is its duration minus the durations of its
children, so the self times of one process add up to its wall time.  The
layer of a span is the first part of its name: the package modules, plus
"process" (interpreter start and exit), "import" and "trace" (the tracer's
own set-up).
"""

from __future__ import annotations

import json
import re
import statistics

FACES = ("N", "123", "134", "14", "23")
LAYERS = ("process", "import", "trace", "cli", "primitives",
          "service_disciplines", "generator", "induced_chains", "stability",
          "simulator")

# per-layer metrics, in report order
PER_LAYER = [
    ("import.netdrift_s", "s"),
    ("import.scipy_stats_s", "s"),
    ("cli.parse_model_s", "s"),
    ("service_disciplines.build_network_s", "s"),
    ("generator.kernel_blocks_s", "s"),
    ("generator.blocks_built", "count"),
    ("generator.assemble_lattice_s", "s"),
    ("generator.assemble_lattice_calls", "count"),
    ("generator.lattice_nnz", "count"),
    ("generator.check_semi_irreducible_s", "s"),
    ("generator.check_semi_irreducible_self_s", "s"),
    ("generator.probe_states", "count"),
]
for _face in FACES:
    PER_LAYER += [
        (f"induced_chains.solve_stationary_s.{_face}", "s"),
        (f"induced_chains.solve_stationary_self_s.{_face}", "s"),
        (f"induced_chains.states.{_face}", "count"),
        (f"induced_chains.levels_tried.{_face}", "count"),
        (f"induced_chains.final_level.{_face}", "count"),
        (f"induced_chains.tail_mass.{_face}", "ratio"),
    ]
PER_LAYER += [
    ("induced_chains.output_rates_s", "s"),
    ("induced_chains.closed_form_table_s", "s"),
    ("induced_chains.drift_rel_err_max", "ratio"),
    ("stability.classify_self_s", "s"),
    ("stability.lyapunov_certificate_s", "s"),
    ("stability.spiral_path_s", "s"),
    ("simulator.run_s", "s"),
    ("simulator.events", "count"),
    ("simulator.estimate_drift_s", "s"),
    ("cli.sweep_point_s", "s"),
]
PER_LAYER += [(f"self_s.{layer}", "s") for layer in LAYERS]
PER_LAYER += [("trace.wall_s", "s"), ("trace.overhead_frac", "ratio")]

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")
BLOCK_SPANS = ("generator.q_blocks", "generator.p_blocks")
IMPORT_PACKAGES = {"netdrift": "import.netdrift_s", "scipy.stats": "import.scipy_stats_s"}


def import_times(stderr):
    """Seconds spent importing each package of IMPORT_PACKAGES, from
    -X importtime: the cumulative times of its outermost modules.  A
    module's importers follow it in that output, indented less."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    out = {}
    ancestors = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for package in IMPORT_PACKAGES:
            mine = name == package or name.startswith(package + ".")
            nested = any(a == package or a.startswith(package + ".")
                         for _, a in ancestors)
            if mine and not nested:
                out[package] = out.get(package, 0.0) + cumulative
        ancestors.append((depth, name))
    return out


class Process:
    """The spans of one traced process, with parent links and self times."""

    def __init__(self, case, spawn, exit_, spans_file, stderr):
        header_line, spans_line = spans_file.read_text().splitlines()[:2]
        header = json.loads(header_line)
        self.case = case
        self.overhead = header["overhead_s"]
        self.missing = header["missing"]
        self.imports = import_times(stderr)
        # root first; child parent indices shift by one
        self.spans = [{"name": "process", "start": spawn, "end": exit_,
                       "parent": -1, "attrs": {"case": case}}]
        for name, start, end, parent, attrs in json.loads(spans_line):
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": parent + 1, "attrs": attrs})
        child_time = [0.0] * len(self.spans)
        for span in self.spans[1:]:
            child_time[span["parent"]] += span["end"] - span["start"]
        for span, covered in zip(self.spans, child_time):
            span["dur"] = span["end"] - span["start"]
            span["self"] = span["dur"] - covered

    @property
    def wall(self):
        return self.spans[0]["dur"]

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def outermost(self, *names):
        """Spans with one of the names that are not inside another of them."""
        out = []
        for s in self.named(*names):
            p = s["parent"]
            while p >= 0 and self.spans[p]["name"] not in names:
                p = self.spans[p]["parent"]
            if p < 0:
                out.append(s)
        return out

    def children(self, span_index):
        return [s for s in self.spans if s["parent"] == span_index]


def layer_of(name):
    return name.split(".", 1)[0]


def per_layer_metrics(processes):
    """The PER_LAYER metrics of one pass (all its traced processes)."""
    m = {name: 0.0 for name, _ in PER_LAYER}

    def total(key, *names, field="dur"):
        m[key] += sum(s[field] for p in processes for s in p.named(*names))

    for package, key in IMPORT_PACKAGES.items():
        per_process = [p.imports.get(package, 0.0) for p in processes]
        m[key] = statistics.median(per_process) if per_process else 0.0
    total("cli.parse_model_s", "cli.parse_model_dict")
    total("service_disciplines.build_network_s", "service_disciplines.build_network")
    for p in processes:
        blocks = p.outermost(*BLOCK_SPANS)
        m["generator.kernel_blocks_s"] += sum(s["dur"] for s in blocks)
        m["generator.blocks_built"] += len(p.named(*BLOCK_SPANS))
        for s in p.named("generator.assemble_lattice"):
            m["generator.assemble_lattice_s"] += s["dur"]
            m["generator.assemble_lattice_calls"] += 1
            m["generator.lattice_nnz"] += s["attrs"].get("nnz", 0)
        for i, s in enumerate(p.spans):
            if s["name"] == "generator.check_semi_irreducible":
                m["generator.check_semi_irreducible_s"] += s["dur"]
                m["generator.check_semi_irreducible_self_s"] += s["self"]
                for c in p.children(i):
                    if c["name"] == "generator.assemble_lattice":
                        m["generator.probe_states"] += c["attrs"].get("rows", 0)
        for s in p.named("induced_chains.solve_stationary"):
            a = s["attrs"]
            face = a.get("face")
            if face not in FACES:
                continue
            m[f"induced_chains.solve_stationary_s.{face}"] += s["dur"]
            m[f"induced_chains.solve_stationary_self_s.{face}"] += s["self"]
            m[f"induced_chains.states.{face}"] += a.get("states", 0)
            m[f"induced_chains.levels_tried.{face}"] += a.get("levels_tried", 0)
            key = f"induced_chains.final_level.{face}"
            m[key] = max(m[key], a.get("final_level", 0))
            key = f"induced_chains.tail_mass.{face}"
            m[key] = max(m[key], a.get("tail_mass", 0.0))
        for s in p.named("induced_chains.drift_table"):
            m["induced_chains.drift_rel_err_max"] = max(
                m["induced_chains.drift_rel_err_max"], s["attrs"].get("rel_err", 0.0))
        for s in p.named("simulator.simulate", "simulator.simulate_saturated"):
            m["simulator.run_s"] += s["dur"]
            m["simulator.events"] += s["attrs"].get("events", 0)
        for s in p.spans:
            layer = layer_of(s["name"])
            if layer in LAYERS:
                m[f"self_s.{layer}"] += s["self"]
    total("induced_chains.output_rates_s", "induced_chains.output_rates")
    total("induced_chains.closed_form_table_s", "induced_chains.closed_form_table")
    total("stability.classify_self_s", "stability.classify", field="self")
    total("stability.lyapunov_certificate_s", "stability.lyapunov_certificate")
    total("stability.spiral_path_s", "stability.spiral_path")
    total("simulator.estimate_drift_s", "simulator.estimate_drift")
    total("cli.sweep_point_s", "cli._sweep_point")
    wall = sum(p.wall for p in processes)
    m["trace.wall_s"] = wall
    m["trace.overhead_frac"] = sum(p.overhead for p in processes) / wall if wall else 0.0
    return m


def where_time_went(processes, pass_wall):
    """Rows (layer, self seconds, share of the pass wall time), largest
    first, plus the benchmark's own time between processes."""
    selfs = {layer: 0.0 for layer in LAYERS}
    for p in processes:
        for s in p.spans:
            layer = layer_of(s["name"])
            selfs[layer] = selfs.get(layer, 0.0) + s["self"]
    rows = sorted(selfs.items(), key=lambda kv: -kv[1])
    rows.append(("(benchmark, between processes)",
                 pass_wall - sum(p.wall for p in processes)))
    return [(name, secs, secs / pass_wall if pass_wall else 0.0) for name, secs in rows]


def span_records(processes):
    """All spans of a pass as plain records for the results file, with
    global ids and parent links."""
    out = []
    for p in processes:
        base = len(out)
        for s in p.spans:
            out.append({
                "id": len(out),
                "parent": base + s["parent"] if s["parent"] >= 0 else None,
                "name": s["name"],
                "case": p.case,
                "start": s["start"],
                "dur_s": s["dur"],
                "self_s": s["self"],
                "attrs": s["attrs"],
            })
    return out
