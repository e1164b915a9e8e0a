"""Run one ``netdrift`` command with spans recorded around its layers.

Usage: python -X importtime perfbench/tracer.py SPANS_OUT ARG...

ARG... are the arguments of ``netdrift`` (as for ``python -m netdrift.cli``).
The tracer imports the package, replaces the functions listed in TARGETS
(each module's public entry points, plus ``cli._sweep_point``, one sweep
point) with timing wrappers at every module attribute that refers to them,
runs ``netdrift.cli.main`` and writes the spans to SPANS_OUT as JSON.
Nothing under ``src/`` is edited; the wrappers only time the calls and read
public attributes of the values those calls return.

SPANS_OUT gets two JSON lines: a header (the tracer's own measured time
``overhead_s`` and the targets not found) and the span list.  A span
is [name, start, end, parent index, attributes], with times from
``time.monotonic`` so the parent benchmark can place them inside the
process wall time it measured itself.
"""

import functools
import json
import sys
import time
import weakref

# (module, function names) wrapped at every reference inside the package.
# Methods are given as "Class.method".
TARGETS = (
    ("netdrift.cli", ("parse_model_dict", "load_model", "apply_parameter",
                      "_sweep_point", "cmd_validate", "cmd_analyze",
                      "cmd_sweep", "cmd_simulate", "cmd_certificate")),
    ("netdrift.primitives", ("poisson_map", "mmpp_map", "validate_map",
                             "exponential_ph", "erlang_ph",
                             "hyperexponential_ph", "validate_ph")),
    ("netdrift.service_disciplines", ("build_network",
                                      "build_nonpreemptive_msp",
                                      "build_preemptive_resume_msp",
                                      "build_limited_msp", "validate_msp")),
    ("netdrift.generator", ("BlockKernel.q_blocks", "BlockKernel.p_blocks",
                            "assemble_lattice", "check_semi_irreducible")),
    ("netdrift.induced_chains", ("drift_table", "closed_form_table",
                                 "numeric_table", "build_induced_chain",
                                 "solve_stationary", "output_rates",
                                 "mean_displacement",
                                 "check_sign_conditions")),
    ("netdrift.stability", ("classify", "nominal_condition",
                            "check_ratio_conditions", "compute_r1_r2",
                            "lyapunov_certificate", "spiral_path")),
    ("netdrift.simulator", ("simulate", "simulate_saturated",
                            "estimate_drift")),
)


class Recorder:
    """Spans of one process, kept in memory until the command ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.overhead = 0.0
        # signatures already looked up, per kernel and block kind
        self.seen_blocks = weakref.WeakKeyDictionary()

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.monotonic(), None, parent, {}]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span[2] = time.monotonic()
        self.stack.pop()


def _face(subset):
    subset = sorted(subset)
    return "N" if subset == [1, 2, 3, 4] else "".join(str(i) for i in subset)


def _solve_attrs(args, result):
    chain = args[0]
    d = len(result.free)
    S0 = chain.kernel.S0
    return {
        "face": _face(result.A),
        "states": sum(S0 * level ** d for level, _, _ in result.history),
        "levels_tried": len(result.history),
        "final_level": int(result.levels),
        "tail_mass": float(result.tail_mass),
        "converged": bool(result.converged),
    }


def _lattice_attrs(args, result):
    return {"rows": int(result.shape[0]), "nnz": int(result.nnz)}


def _table_attrs(args, result):
    cross = result.cross_check
    return {"rel_err": float(cross["worst"])} if cross else {}


def _trajectory_attrs(args, result):
    return {"events": int(result.n_events)}


# readers of the returned values, by span name
ATTRS = {
    "induced_chains.solve_stationary": _solve_attrs,
    "generator.assemble_lattice": _lattice_attrs,
    "induced_chains.drift_table": _table_attrs,
    "simulator.simulate": _trajectory_attrs,
    "simulator.simulate_saturated": _trajectory_attrs,
}


def _wrap(rec, name, fn):
    reader = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.monotonic()
        span = rec.open(name)
        t1 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            t2 = time.monotonic()
            rec.close(span)
        if reader is not None:
            try:
                span[4] = reader(args, result)
            except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                span[4] = {"unreadable": True}
        rec.overhead += (t1 - t0) + (time.monotonic() - t2)
        return result

    return wrapper


def _wrap_blocks(rec, name, fn):
    """Block lookups are cached per kernel and signature; only the first
    call for a (kernel, signature) builds blocks, so only it gets a span."""

    @functools.wraps(fn)
    def wrapper(self, sig):
        t0 = time.monotonic()
        seen = rec.seen_blocks.setdefault(self, set())
        key = (name, tuple(int(v) for v in sig))
        if key in seen:
            rec.overhead += time.monotonic() - t0
            return fn(self, sig)
        seen.add(key)
        span = rec.open(name)
        t1 = time.monotonic()
        try:
            return fn(self, sig)
        finally:
            t2 = time.monotonic()
            rec.close(span)
            rec.overhead += (t1 - t0) + (time.monotonic() - t2)

    return wrapper


def install(rec):
    """Wrap every target; returns the targets that were not found."""
    missing = []
    replaced = {}
    for module_name, names in TARGETS:
        module = sys.modules.get(module_name)
        layer = module_name.split(".", 1)[1]
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{name}")
                continue
            span_name = f"{layer}.{attr}"
            if owner_name:
                setattr(owner, attr, _wrap_blocks(rec, span_name, fn))
            else:
                replaced[id(fn)] = (fn, _wrap(rec, span_name, fn))
    # rebind every module attribute that refers to a wrapped function, so
    # names imported with "from .x import f" are traced too
    for module_name, module in list(sys.modules.items()):
        if module_name != "netdrift" and not module_name.startswith("netdrift."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return missing


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    span = rec.open("import")
    import netdrift.cli
    rec.close(span)
    span = rec.open("trace.install")
    missing = install(rec)
    rec.close(span)
    rec.overhead += span[2] - span[1]
    span = rec.open("cli.main")
    try:
        code = netdrift.cli.main(argv)
    finally:
        rec.close(span)
        t0 = time.monotonic()
        spans = json.dumps(rec.spans)
        overhead = rec.overhead + (time.monotonic() - t0)
        header = json.dumps({"overhead_s": overhead, "missing": missing})
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + spans + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
