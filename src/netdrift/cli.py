"""Command-line interface: validate, analyze, sweep, simulate, certificate.

Model files are JSON with two arrival blocks, four service blocks, a
discipline, and the feedback probability.  Outputs are byte-stable for
fixed inputs and seeds: data files carry no timestamps (a sidecar
.meta.json does), JSON keys are sorted, CSV rows follow input order.

Exit codes are a stable contract: 0 positive recurrent, 1 transient,
4 inconclusive (including degenerate or unavailable analyses), 2 model
validation failure, 3 parse, usage or output-path error, 5 internal error.
"""

from __future__ import annotations

import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BadParameterPath,
    BetaSumNotOne,
    InsufficientData,
    InvalidSubgenerator,
    ModelFileError,
    ModelParseError,
    NegativeProbability,
    NetdriftError,
    ProbeBoxTooLarge,
    SingularH,
    Undecided,
)
from .primitives import (
    erlang_ph,
    exponential_ph,
    hyperexponential_ph,
    mmpp_map,
    poisson_map,
    validate_map,
    validate_ph,
)
from .service_disciplines import MSPSpec, T_KEYS, U_KEYS, build_network

# the analysis modules are imported by the commands that run them, so that
# parsing a model loads none of them


# --- model file parsing -------------------------------------------------------

def _need(block, key, path):
    if not isinstance(block, dict):
        raise ModelParseError(f"{path}: expected an object")
    if key not in block:
        raise ModelParseError(f"{path}: missing field '{key}'")
    return block[key]


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelParseError(f"{path}: expected a number")
    if not math.isfinite(value):
        raise ModelParseError(f"{path}: value must be finite")
    return value


def _matrix(value, path):
    try:
        M = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ModelParseError(f"{path}: expected a numeric matrix") from None
    if M.ndim != 2:
        raise ModelParseError(f"{path}: expected a two-dimensional matrix")
    return M


def _vector(value, path):
    try:
        v = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ModelParseError(f"{path}: expected a numeric vector") from None
    if v.ndim != 1:
        raise ModelParseError(f"{path}: expected a one-dimensional vector")
    return v


def _parse_map(block, path):
    if not isinstance(block, dict):
        raise ModelParseError(f"{path}: expected an object")
    try:
        if "poisson" in block:
            return poisson_map(_number(block["poisson"], f"{path}.poisson"))
        if "mmpp" in block:
            inner = block["mmpp"]
            Q = _matrix(_need(inner, "switch", f"{path}.mmpp"), f"{path}.mmpp.switch")
            rates = _vector(_need(inner, "rates", f"{path}.mmpp"), f"{path}.mmpp.rates")
            return mmpp_map(Q, rates)
        if "C" in block or "D" in block:
            C = _matrix(_need(block, "C", path), f"{path}.C")
            D = _matrix(_need(block, "D", path), f"{path}.D")
            return validate_map(C, D)
    except ModelParseError:
        raise
    except NetdriftError as exc:
        raise ModelFileError(path, str(exc)) from exc
    raise ModelParseError(
        f"{path}: expected 'poisson' or 'mmpp' shorthand or C/D matrices"
    )


def _parse_ph(block, path):
    if not isinstance(block, dict):
        raise ModelParseError(f"{path}: expected an object")
    try:
        if "exponential" in block:
            return exponential_ph(_number(block["exponential"], f"{path}.exponential"))
        if "erlang" in block:
            inner = block["erlang"]
            phases = _need(inner, "phases", f"{path}.erlang")
            rate = _number(_need(inner, "rate", f"{path}.erlang"), f"{path}.erlang.rate")
            return erlang_ph(phases, rate)
        if "hyperexponential" in block:
            inner = block["hyperexponential"]
            weights = _vector(_need(inner, "weights", f"{path}.hyperexponential"),
                              f"{path}.hyperexponential.weights")
            rates = _vector(_need(inner, "rates", f"{path}.hyperexponential"),
                            f"{path}.hyperexponential.rates")
            return hyperexponential_ph(weights, rates)
        if "beta" in block or "H" in block:
            beta = _vector(_need(block, "beta", path), f"{path}.beta")
            H = _matrix(_need(block, "H", path), f"{path}.H")
            try:
                return validate_ph(beta, H)
            except BetaSumNotOne as exc:
                raise ModelFileError(f"{path}.beta", str(exc)) from exc
            except (InvalidSubgenerator, SingularH) as exc:
                raise ModelFileError(f"{path}.H", str(exc)) from exc
    except ModelParseError:
        raise
    except ModelFileError:
        raise
    except NetdriftError as exc:
        raise ModelFileError(path, str(exc)) from exc
    raise ModelParseError(
        f"{path}: expected 'exponential', 'erlang' or 'hyperexponential' "
        "shorthand or beta/H matrices"
    )


def _parse_msp(block, path):
    if not isinstance(block, dict):
        raise ModelParseError(f"{path}: expected an object")
    s_lo = _need(block, "sLo", path)
    s_hi = _need(block, "sHi", path)
    if isinstance(s_lo, bool) or isinstance(s_hi, bool) \
            or not isinstance(s_lo, int) or not isinstance(s_hi, int):
        raise ModelParseError(f"{path}: sLo and sHi must be integers")
    t_block = _need(block, "t", path)
    u_block = _need(block, "u", path)
    t = {}
    for key in T_KEYS:
        t[key] = _matrix(_need(t_block, key, f"{path}.t"), f"{path}.t.{key}")
    u = {}
    for key in U_KEYS:
        u[key] = _matrix(_need(u_block, key, f"{path}.u"), f"{path}.u.{key}")
    n = t["00"].shape[0]
    return MSPSpec(n=n, s_lo=s_lo, s_hi=s_hi, t=t, u=u, kind="custom")


def parse_model_dict(data):
    """Build a validated NetworkModel from parsed model-file JSON."""
    if not isinstance(data, dict):
        raise ModelParseError("model file must contain a JSON object")
    arrivals = _need(data, "arrivals", "model")
    if not isinstance(arrivals, list) or len(arrivals) != 2:
        raise ModelParseError("arrivals: expected a list of exactly 2 blocks")
    services = _need(data, "services", "model")
    if not isinstance(services, list) or len(services) != 4:
        raise ModelParseError("services: expected a list of exactly 4 blocks")
    map1 = _parse_map(arrivals[0], "arrivals.1")
    map3 = _parse_map(arrivals[1], "arrivals.2")
    ph = [_parse_ph(services[i], f"services.{i + 1}") for i in range(4)]
    p = _number(_need(data, "p", "model"), "p")
    discipline = _need(data, "discipline", "model")
    K = None
    msp1 = msp2 = None
    if isinstance(discipline, str):
        name = discipline
        if name not in ("non_preemptive", "preemptive_resume"):
            raise ModelParseError(
                f"discipline: unknown discipline {name!r}; expected "
                "non_preemptive, preemptive_resume, limited or custom"
            )
    elif isinstance(discipline, dict) and "limited" in discipline:
        name = "limited"
        K = _need(discipline["limited"], "K", "discipline.limited")
    elif isinstance(discipline, dict) and "custom" in discipline:
        name = "custom"
        inner = discipline["custom"]
        msp1 = _parse_msp(_need(inner, "msp1", "discipline.custom"),
                          "discipline.custom.msp1")
        msp2 = _parse_msp(_need(inner, "msp2", "discipline.custom"),
                          "discipline.custom.msp2")
    else:
        raise ModelParseError(
            "discipline: expected a name or {'limited': {...}} / {'custom': {...}}"
        )
    try:
        return build_network(map1, map3, ph[0], ph[1], ph[2], ph[3], p,
                             discipline=name, K=K, msp1=msp1, msp2=msp2)
    except NegativeProbability as exc:
        raise ModelFileError("p", str(exc)) from exc
    except NetdriftError as exc:
        raise ModelFileError("discipline", str(exc)) from exc


def _load_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"malformed JSON in {path}: {exc}") from exc


def load_model(path):
    """Parse and validate the model file at `path`."""
    return parse_model_dict(_load_json(path))


def canonical_model_dict(model):
    """Canonical model-file form: raw matrices, explicit discipline."""
    if model.discipline == "limited":
        discipline = {"limited": {"K": int(model.K)}}
    elif model.discipline == "custom":
        def msp_dict(m):
            return {
                "sLo": int(m.s_lo),
                "sHi": int(m.s_hi),
                "t": {k: m.t[k].tolist() for k in T_KEYS},
                "u": {k: m.u[k].tolist() for k in U_KEYS},
            }
        discipline = {"custom": {"msp1": msp_dict(model.msp1),
                                 "msp2": msp_dict(model.msp2)}}
    else:
        discipline = model.discipline
    return {
        "arrivals": [
            {"C": model.map1.C.tolist(), "D": model.map1.D.tolist()},
            {"C": model.map3.C.tolist(), "D": model.map3.D.tolist()},
        ],
        "services": [
            {"beta": ph.beta.tolist(), "H": ph.H.tolist()} for ph in model.ph
        ],
        "discipline": discipline,
        "p": float(model.p),
    }


# --- sweep parameter paths ----------------------------------------------------

def apply_parameter(model_dict, path, value):
    """Return a copy of the model dict with the parameter at `path` set.

    Supported paths: p, discipline.K, arrivals.<i>.rate (poisson
    shorthand), services.<i>.rate (exponential or erlang shorthand).
    """
    import copy

    out = copy.deepcopy(model_dict)
    parts = path.split(".")
    if parts == ["p"]:
        out["p"] = value
        return out
    if parts == ["discipline", "K"]:
        disc = out.get("discipline")
        if not (isinstance(disc, dict) and "limited" in disc
                and isinstance(disc["limited"], dict)):
            raise BadParameterPath(
                "discipline.K applies only to the limited discipline"
            )
        disc["limited"]["K"] = value
        return out
    if len(parts) == 3 and parts[2] == "rate" and parts[0] in ("arrivals", "services"):
        group = out.get(parts[0])
        count = 2 if parts[0] == "arrivals" else 4
        try:
            idx = int(parts[1])
        except ValueError:
            raise BadParameterPath(f"bad index in parameter path {path!r}") from None
        if not (isinstance(group, list) and 1 <= idx <= min(count, len(group))):
            raise BadParameterPath(f"index out of range in parameter path {path!r}")
        block = group[idx - 1]
        if not isinstance(block, dict):
            raise BadParameterPath(f"{path}: target block is not an object")
        if parts[0] == "arrivals":
            if "poisson" not in block:
                raise BadParameterPath(
                    f"{path}: rate sweeps need the poisson shorthand"
                )
            block["poisson"] = value
        else:
            if "exponential" in block:
                block["exponential"] = value
            elif "erlang" in block and isinstance(block["erlang"], dict):
                block["erlang"]["rate"] = value
            else:
                raise BadParameterPath(
                    f"{path}: rate sweeps need the exponential or erlang shorthand"
                )
        return out
    raise BadParameterPath(f"unknown parameter path {path!r}")


# --- output helpers -----------------------------------------------------------

def _dump_json(obj):
    # a non-finite number is not JSON: fail rather than write Infinity
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_meta(target: Path):
    meta = {
        "generatedAt": datetime.now(timezone.utc).isoformat(),
        "tool": "netdrift",
        "version": __version__,
    }
    target.write_text(_dump_json(meta))


def _emit_json(obj, out_path):
    text = _dump_json(obj)
    if out_path:
        out = Path(out_path)
        out.write_text(text)
        _write_meta(out.with_name(out.name + ".meta.json"))
    else:
        sys.stdout.write(text)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# --- commands -----------------------------------------------------------------

def cmd_validate(args):
    from . import generator

    model = load_model(args.model)
    status = generator.check_semi_irreducible(model, radius=args.probe_radius)
    if args.canonical_out:
        Path(args.canonical_out).write_text(_dump_json(canonical_model_dict(model)))
    report = {
        "valid": True,
        "discipline": model.discipline,
        "K": model.K,
        "p": model.p,
        "arrivalRates": list(model.arrival_rates),
        "serviceRates": list(model.service_rates),
        "backgroundStates": generator.kernel_of(model).S0,
        "semiIrreducibility": status,
    }
    _emit_json(report, args.out)
    return 0


def cmd_analyze(args):
    from . import stability

    model = load_model(args.model)
    report = stability.classify(
        model,
        mode=args.mode,
        assume_semi_irreducible=args.assume_semi_irreducible,
        with_certificate=args.certificate,
        with_spiral=args.spiral or bool(args.spiral_csv),
    )
    _emit_json(report.to_json_dict(), args.out)
    if args.spiral_csv:
        import csv

        # with no spiral the header alone, so no earlier path is left behind
        points = report.spiral.points if report.spiral is not None else []
        with open(args.spiral_csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["step", "x1", "x2", "x3", "x4"])
            for step, point in enumerate(points, start=1):
                writer.writerow([step] + [_fmt(float(v)) for v in point])
    exit_codes = {stability.POSITIVE_RECURRENT: 0, stability.TRANSIENT: 1,
                  stability.INCONCLUSIVE: 4}
    return exit_codes[report.classification]


def _sweep_point(payload):
    from . import stability

    model_dict, path, value, mode = payload
    try:
        patched = apply_parameter(model_dict, path, value)
        model = parse_model_dict(patched)
        # a near-empty-box probe keeps per-point cost flat across the sweep;
        # a confirmation is a proof at any radius
        report = stability.classify(model, mode=mode, probe_radius=1)
        note = "; ".join(report.reasons)
        return (value, report.r1, report.r2, report.r1r2,
                report.classification, note)
    except NetdriftError as exc:
        return (value, None, None, None, stability.INCONCLUSIVE,
                f"{type(exc).__name__}: {exc}")


def cmd_sweep(args):
    model_dict = _load_json(args.model)
    parse_model_dict(model_dict)
    sweep = _load_json(args.sweep)
    path = _need(sweep, "parameter", "sweep")
    if not isinstance(path, str):
        raise ModelParseError("sweep.parameter: expected a string path")
    values = _need(sweep, "values", "sweep")
    if not isinstance(values, list):
        raise ModelParseError("sweep.values: expected a list")
    for i, v in enumerate(values, start=1):
        _number(v, f"sweep.values.{i}")
    if values:
        apply_parameter(model_dict, path, values[0])
    payloads = [(model_dict, path, v, args.mode) for v in values]
    if args.jobs > 1 and len(payloads) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    import csv

    target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(["value", "r1", "r2", "r1r2", "classification", "note"])
        for value, r1, r2, r1r2, classification, note in rows:
            writer.writerow([_fmt(value), _fmt(r1), _fmt(r2), _fmt(r1r2),
                             classification, note])
    finally:
        if args.out:
            target.close()
            _write_meta(Path(args.out).with_name(Path(args.out).name + ".meta.json"))
    return 0


def _analytic_reference(model, subset):
    """Drift entry for the saturated subset: the closed form when in scope,
    else, on a canonical face, that face's numeric entry; None when
    neither has drifts."""
    from . import induced_chains as ic

    try:
        entry = ic.drift_table(model, mode="closed").entry(subset)
    except NetdriftError:
        if frozenset(subset) not in ic.CANONICAL_SUBSETS:
            return None
        entry = ic.numeric_entry(model, subset)
        if entry.drifts is None:
            return None
    return {"drifts": list(entry.drifts), "outputRates": list(entry.output_rates),
            "provenance": entry.provenance}


def cmd_simulate(args):
    from . import simulator

    if args.saturate is not None:
        # for the analytic rates: compiled after the runs, it would raise
        # their peak memory by about 1 MB
        from . import induced_chains  # noqa: F401
    model = load_model(args.model)
    subset = args.saturate
    initial = (args.initial, 0) if args.initial else None
    seeds = simulator.replication_seeds(args.seed, args.replications)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    replication_reports = []
    estimates = []
    for idx, child_seed in enumerate(seeds, start=1):
        if subset is not None:
            traj = simulator.simulate_saturated(model, subset, args.horizon, child_seed)
        else:
            traj = simulator.simulate(model, args.horizon, child_seed, initial)
        entry = {"replication": idx, **traj.summary()}
        try:
            est = simulator.estimate_drift(traj, burn_in=args.burn_in)
            estimates.append(est)
            entry["driftEstimate"] = est.to_json_dict()
        except InsufficientData as exc:
            entry["driftEstimate"] = None
            entry["note"] = str(exc)
        replication_reports.append(entry)
        if out_dir:
            rows = map("%r,%d,%d,%d,%d\n".__mod__, zip(
                traj.sample_times.tolist(), *traj.sample_states.T.tolist()))
            with open(out_dir / f"trajectory_{idx:03d}.csv", "w", newline="") as fh:
                fh.write("t,x1,x2,x3,x4\n" + "".join(rows))
    summary = {
        "horizon": args.horizon,
        "seed": args.seed,
        "replications": args.replications,
        "saturated": sorted(subset) if subset else None,
        "perReplication": replication_reports,
        "analytical": None,
        "agreement": None,
    }
    if subset is not None and estimates:
        reference = _analytic_reference(model, subset)
        summary["analytical"] = reference
        if reference is not None:
            pooled_rate = np.mean([e.departure_rates for e in estimates], axis=0)
            pooled_hw = np.max([e.departure_rate_half_widths for e in estimates],
                               axis=0)
            agreement = []
            for i in range(4):
                diff = abs(pooled_rate[i] - reference["outputRates"][i])
                agreement.append({
                    "queue": i + 1,
                    "simulatedRate": float(pooled_rate[i]),
                    "analyticRate": reference["outputRates"][i],
                    "halfWidth": float(pooled_hw[i]),
                    "ok": bool(diff <= 3.0 * max(pooled_hw[i], 1e-12)),
                })
            summary["agreement"] = agreement
    _emit_json(summary, str(out_dir / "summary.json") if out_dir else None)
    return 0


def cmd_certificate(args):
    from . import induced_chains, stability

    model = load_model(args.model)
    table = induced_chains.drift_table(model, mode=args.mode)
    certificate = stability.lyapunov_certificate(table)
    payload = certificate.to_json_dict()
    payload["subsets"] = [induced_chains.subset_name(A)
                          for A in induced_chains.CANONICAL_SUBSETS]
    _emit_json(payload, args.out)
    return 0


# --- parser -------------------------------------------------------------------

def _checked(convert, want, ok=lambda value: True):
    """argparse type: `convert(text)` when it raises no ValueError or
    NetdriftError and `ok` holds for the result; `want` says what the
    option takes."""
    def check(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, NetdriftError):
            pass
        import argparse

        raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
    return check


def _subset(text):
    from . import generator

    if text.strip().upper() == "N":
        return generator.SUBSET_ALL
    return generator.saturated_subset(int(tok) for tok in text.split(",") if tok.strip())


def build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argument parser whose usage errors exit with code 3, leaving 2
        free for model validation failures."""

        def error(self, message):
            self.exit(3, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="netdrift",
                     description="Stability analysis of a two-station "
                                 "re-entrant queueing network")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    positive = _checked(int, "an integer of at least 1", lambda v: v >= 1)
    count = _checked(int, "an integer of at least 0", lambda v: v >= 0)

    def add_common(p):
        p.add_argument("--mode", choices=("both", "closed", "numeric"),
                       default="both", help="drift table mode")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("validate", help="validate a model file")
    p.add_argument("model")
    p.add_argument("--probe-radius", type=count, default=3)
    p.add_argument("--canonical-out", help="also write the canonical model form")
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="classify a model")
    p.add_argument("model")
    add_common(p)
    p.add_argument("--certificate", action="store_true",
                   help="attach a Lyapunov certificate when positive recurrent")
    p.add_argument("--spiral", action="store_true",
                   help="attach the spiral path of the boundary vector fields")
    p.add_argument("--spiral-csv", help="write the spiral path as CSV")
    p.add_argument("--assume-semi-irreducible", action="store_true",
                   help="skip the reachability probe")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="classify across a parameter sweep")
    p.add_argument("model")
    p.add_argument("sweep", help="JSON file: {parameter, values}")
    add_common(p)
    p.add_argument("--jobs", type=positive, default=1,
                   help="parallel worker processes")
    # closed is the fastest mode per point
    p.set_defaults(func=cmd_sweep, mode="closed")

    p = sub.add_parser("simulate", help="simulate trajectories")
    p.add_argument("model")
    p.add_argument("--horizon", default=10000.0,
                   type=_checked(float, "a positive finite number",
                                 lambda v: 0.0 < v < math.inf))
    p.add_argument("--seed", type=count, default=12345)
    p.add_argument("--replications", type=positive, default=1)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--saturate", type=_checked(_subset, "N or queues in 1..4"),
                       help="comma-separated queues to pin (or N for all)")
    start.add_argument("--initial", help="four comma-separated initial queue lengths",
                       type=_checked(lambda t: tuple(int(v) for v in t.split(",")),
                                     "four nonnegative comma-separated queue lengths",
                                     lambda x: len(x) == 4 and min(x) >= 0))
    p.add_argument("--burn-in", type=_checked(float, "a fraction in [0, 1)",
                                              lambda v: 0.0 <= v < 1.0), default=0.2)
    p.add_argument("--out", help="directory for trajectory CSVs and summary")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certificate", help="construct a Lyapunov certificate")
    p.add_argument("model")
    add_common(p)
    p.set_defaults(func=cmd_certificate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ModelParseError as exc:
        sys.stderr.write(f"netdrift: parse error: {exc}\n")
        return 3
    except ModelFileError as exc:
        sys.stderr.write(f"netdrift: invalid model at {exc.path}: {exc.message}\n")
        return 2
    except Undecided as exc:
        sys.stderr.write(f"netdrift: {type(exc).__name__}: {exc}\n")
        return 4
    except ProbeBoxTooLarge as exc:
        # a --probe-radius too large for the model is a bad option value
        sys.stderr.write(f"netdrift: {type(exc).__name__}: {exc}\n")
        return 3
    except NetdriftError as exc:
        sys.stderr.write(f"netdrift: {type(exc).__name__}: {exc}\n")
        return 2
    except OSError as exc:
        # a failed input read is a parse error, so this is a failed write
        sys.stderr.write(f"netdrift: cannot write {exc.filename}: {exc.strerror}\n")
        return 3
    except Exception:
        import traceback

        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())
