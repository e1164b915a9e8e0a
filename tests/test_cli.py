"""End-to-end command-line behavior: exit codes, file outputs, and
byte-for-byte reproducibility of reports."""

import copy
import hashlib
import json
import re

import numpy as np
import pytest

from netdrift import (classify, drift_table, erlang_ph, hyperexponential_ph, mmpp_map,
                      verify_certificate)
from netdrift.cli import apply_parameter, canonical_model_dict, load_model, main
from netdrift.errors import BadParameterPath
from netdrift.simulator import SAMPLE_CAP, replication_seeds, simulate, simulate_saturated

from tests.conftest import face_solves_only


BASE_MODEL = {
    "arrivals": [{"poisson": 0.8}, {"poisson": 0.4}],
    "services": [
        {"exponential": 4.0},
        {"exponential": 2.4},
        {"exponential": 4.2},
        {"exponential": 2.2},
    ],
    "discipline": "non_preemptive",
    "p": 0.3,
}

README_MODEL = dict(BASE_MODEL, services=[
    {"exponential": m} for m in (5.0, 2.4, 5.0, 2.2)])

TRANSIENT_MODEL = {
    "arrivals": [{"poisson": 1.0}, {"poisson": 0.55}],
    "services": [
        {"exponential": 4.0},
        {"exponential": 2.0},
        {"exponential": 2.1},
        {"exponential": 0.55 / 0.6},
    ],
    "discipline": "non_preemptive",
    "p": 0.0,
}

LIMITED_MODEL = {
    "arrivals": [{"poisson": 1.0}, {"poisson": 1.0}],
    "services": [
        {"exponential": 5.0},
        {"exponential": 1.8},
        {"exponential": 5.0},
        {"exponential": 1.8},
    ],
    "discipline": {"limited": {"K": 2}},
    "p": 0.0,
}


# MMPP arrivals with Erlang, hyperexponential and raw-PH services
PHMAP_MODEL = dict(BASE_MODEL, arrivals=[
    {"mmpp": {"switch": [[-1.0, 1.0], [2.0, -2.0]], "rates": [0.5, 1.1]}},
    {"poisson": 0.4},
], services=[
    {"erlang": {"phases": 2, "rate": 8.0}},
    {"hyperexponential": {"weights": [0.4, 0.6], "rates": [6.0, 2.0]}},
    {"beta": [0.3, 0.7], "H": [[-6.0, 1.0], [0.5, -5.0]]},
    {"exponential": 2.2},
])


def msp_dict(m):
    return {"sLo": m.s_lo, "sHi": m.s_hi,
            "t": {k: v.tolist() for k, v in m.t.items()},
            "u": {k: v.tolist() for k, v in m.u.items()}}


def custom_model(tmp_path, payload):
    """`payload` with its stations' built MSPs written as a custom discipline."""
    model = load_model(write_json(tmp_path, "built.json", payload))
    return dict(payload, discipline={"custom": {"msp1": msp_dict(model.msp1),
                                                "msp2": msp_dict(model.msp2)}})


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_model_facts(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    code, out, err = run(capsys, ["validate", model])
    assert code == 0, err
    report = json.loads(out)
    assert report["valid"] is True
    assert report["discipline"] == "non_preemptive"
    assert report["arrivalRates"] == [0.8, 0.4]
    assert report["serviceRates"] == [4.0, 2.4, 4.2, 2.2]
    assert report["backgroundStates"] == 9
    assert report["semiIrreducibility"] == "ConfirmedSemiIrreducible"
    assert report["semiIrreducibilityReason"] is None


def test_validate_canonical_round_trip(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    canon = tmp_path / "canonical.json"
    code, out, err = run(
        capsys, ["validate", model, "--canonical-out", str(canon)])
    assert code == 0
    original = load_model(model)
    reparsed = load_model(str(canon))
    assert canonical_model_dict(reparsed) == canonical_model_dict(original)
    a = classify(original, mode="closed", assume_semi_irreducible=True)
    b = classify(reparsed, mode="closed", assume_semi_irreducible=True)
    assert a.r1r2 == b.r1r2


def _numeric_r1r2(capsys, path):
    code, out, err = run(capsys, ["analyze", path, "--mode", "numeric",
                                  "--assume-semi-irreducible"])
    assert code == 0, err
    return json.loads(out)["r1r2"]


def test_custom_discipline_and_shorthands_round_trip(tmp_path, capsys):
    readme = dict(BASE_MODEL, services=[{"exponential": m} for m in (5.0, 2.4, 5.0, 2.2)])
    path = write_json(tmp_path, "readme.json", readme)

    # the README model, written as a custom discipline with its own MSPs
    custom = write_json(tmp_path, "custom.json", custom_model(tmp_path, readme))
    r1r2 = _numeric_r1r2(capsys, path)
    assert r1r2 == pytest.approx(0.7 * 0.8 / 1.8, abs=1e-7)
    assert _numeric_r1r2(capsys, custom) == r1r2

    canon = tmp_path / "canonical.json"
    code, _, err = run(capsys, ["validate", custom, "--canonical-out", str(canon)])
    assert code == 0, err
    assert json.loads(canon.read_text())["discipline"].keys() == {"custom"}
    assert _numeric_r1r2(capsys, str(canon)) == r1r2

    limited = write_json(tmp_path, "limited.json", dict(LIMITED_MODEL, discipline={
        "limited": {"K": 3}}))
    assert canonical_model_dict(load_model(limited))["discipline"] == {"limited": {"K": 3}}

    # MAP/PH shorthands parse to the matrices of their builders
    shorthand = write_json(tmp_path, "phmap.json", dict(BASE_MODEL, arrivals=[
        {"mmpp": {"switch": [[-1.0, 1.0], [2.0, -2.0]], "rates": [0.5, 1.1]}},
        {"poisson": 0.4},
    ], services=[
        {"erlang": {"phases": 2, "rate": 8.0}},
        {"hyperexponential": {"weights": [0.4, 0.6], "rates": [6.0, 2.0]}},
        {"exponential": 4.2},
        {"exponential": 2.2},
    ]))
    canonical = canonical_model_dict(load_model(shorthand))
    arrival = mmpp_map([[-1.0, 1.0], [2.0, -2.0]], [0.5, 1.1])
    assert canonical["arrivals"][0] == {"C": arrival.C.tolist(), "D": arrival.D.tolist()}
    for got, ph in zip(canonical["services"][:2],
                       (erlang_ph(2, 8.0), hyperexponential_ph([0.4, 0.6], [6.0, 2.0]))):
        assert got == {"beta": ph.beta.tolist(), "H": ph.H.tolist()}


def test_invalid_model_field_is_exit_2(tmp_path, capsys):
    bad = dict(BASE_MODEL)
    bad["services"] = [
        {"exponential": 4.0},
        {"beta": [0.5, 0.6], "H": [[-2.0, 0.0], [0.0, -2.0]]},
        {"exponential": 4.2},
        {"exponential": 2.2},
    ]
    path = write_json(tmp_path, "bad_field.json", bad)
    code, out, err = run(capsys, ["validate", path])
    assert code == 2
    assert "services.2" in err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("service, where", [
    ({"beta": [NAN, 1.0], "H": [[-2.0, 0.0], [0.0, -2.0]]}, "services.2.beta"),
    ({"beta": [None, 1.0], "H": [[-2.0, 0.0], [0.0, -2.0]]}, "services.2.beta"),
    ({"hyperexponential": {"weights": [NAN, 0.5], "rates": [1.0, 2.0]}}, "services.2"),
    ({"hyperexponential": {"weights": [None, 0.5], "rates": [1.0, 2.0]}}, "services.2"),
] + [({"erlang": {"phases": v, "rate": 8.0}}, "services.2")
     for v in (NAN, INF, "x", None, [], {}, True)], ids=repr)
def test_malformed_service_is_exit_2(tmp_path, capsys, service, where):
    # JSON NaN, Infinity and null become non-finite floats; an Erlang count
    # must be a positive integer, and a bool is not one
    services = list(BASE_MODEL["services"])
    services[1] = service
    path = write_json(tmp_path, "model.json", dict(BASE_MODEL, services=services))
    for command in ("validate", "analyze"):
        code, _, err = run(capsys, [command, path])
        assert code == 2, err
        assert f"invalid model at {where}:" in err


def test_non_finite_custom_msp_entry_is_exit_2(tmp_path, capsys):
    model = custom_model(tmp_path, BASE_MODEL)
    model["discipline"]["custom"]["msp1"]["t"]["1*+"][1][2] = NAN
    path = write_json(tmp_path, "custom.json", model)
    for command in ("validate", "analyze", "simulate"):
        code, _, err = run(capsys, [command, path, "--out", str(tmp_path / command)])
        assert code == 2, err
        assert "invalid model at discipline: t['1*+'] contains non-finite entries" in err


def numeric_leaves(node, path=()):
    """Key paths of the numbers (bools aside) in a model-file tree."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from numeric_leaves(child, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def test_malformed_numeric_leaves_keep_the_exit_code_contract(tmp_path, capsys):
    # one numeric leaf replaced at a time: a malformed model is a parse or
    # validation failure (exit 3 or 2), or still a valid model, never an
    # internal error; a non-finite number is never valid
    custom = custom_model(tmp_path, README_MODEL)
    models = [
        (README_MODEL, list(numeric_leaves(README_MODEL))),
        (PHMAP_MODEL, list(numeric_leaves(PHMAP_MODEL))),
        (custom, list(numeric_leaves(custom["discipline"], ("discipline",)))[::10]),
    ]
    malformed = ([(v, (2, 3)) for v in (NAN, INF, None)]
                 + [(v, (0, 2, 3)) for v in (True, "x", [], {})])
    path = tmp_path / "model.json"
    broken, runs = [], 0
    for model, leaves in models:
        path.write_text(json.dumps(model))
        assert run(capsys, ["validate", str(path)])[0] == 0
        for leaf in leaves:
            for value, allowed in malformed:
                bad = copy.deepcopy(model)
                node = bad
                for key in leaf[:-1]:
                    node = node[key]
                node[leaf[-1]] = value
                path.write_text(json.dumps(bad))
                code = run(capsys, ["validate", str(path)])[0]
                if code not in allowed:
                    broken.append((leaf, value, code))
                runs += 1
    assert runs > 400 and broken == []


def test_parse_problems_are_exit_3(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    code, _, err = run(capsys, ["validate", str(broken)])
    assert code == 3 and "parse error" in err

    code, _, err = run(capsys, ["validate", str(tmp_path / "missing.json")])
    assert code == 3 and "cannot read" in err

    empty = write_json(tmp_path, "empty.json", {})
    code, _, err = run(capsys, ["validate", empty])
    assert code == 3

    code, _, err = run(capsys, ["no-such-command"])
    assert code == 3


def with_block(group, index, block, model=BASE_MODEL):
    """`model` with block `index` (from 1) of its `group` list replaced."""
    blocks = list(model[group])
    blocks[index - 1] = block
    return dict(model, **{group: blocks})


@pytest.mark.parametrize("model, code, message", [
    ([BASE_MODEL], 3, "model file must contain a JSON object"),
    (dict(BASE_MODEL, arrivals=BASE_MODEL["arrivals"][:1]), 3,
     "arrivals: expected a list of exactly 2 blocks"),
    (dict(BASE_MODEL, services=BASE_MODEL["services"][:3]), 3,
     "services: expected a list of exactly 4 blocks"),
    (dict(BASE_MODEL, discipline="fifo"), 3, "discipline: unknown discipline 'fifo'"),
    (dict(BASE_MODEL, discipline=5), 3, "discipline: expected a name or"),
    (with_block("arrivals", 1, "poisson"), 3, "arrivals.1: expected an object"),
    (with_block("arrivals", 1, {}), 3,
     "arrivals.1: expected 'poisson' or 'mmpp' shorthand or C/D matrices"),
    (with_block("services", 1, "exponential"), 3, "services.1: expected an object"),
    (with_block("services", 1, {}), 3,
     "services.1: expected 'exponential', 'erlang' or 'hyperexponential' shorthand"),
    (with_block("services", 2, {"beta": [1.0], "H": [-2.0]}), 3,
     "services.2.H: expected a two-dimensional matrix"),
    (with_block("services", 2, {"beta": [[1.0]], "H": [[-2.0]]}), 3,
     "services.2.beta: expected a one-dimensional vector"),
    (dict(BASE_MODEL, discipline={"custom": {"msp1": "x", "msp2": "x"}}), 3,
     "discipline.custom.msp1: expected an object"),
    (with_block("arrivals", 1, {"mmpp": 3}), 3, "arrivals.1.mmpp: expected an object"),
    (dict(BASE_MODEL, p=1.5), 2, "invalid model at p"),
], ids=["top-level list", "one arrival", "three services", "fifo", "discipline 5",
        "string arrival", "empty arrival", "string service", "empty service", "1-D H",
        "2-D beta", "string msp1", "mmpp 3", "p 1.5"])
def test_structural_model_errors_keep_their_exit_codes(tmp_path, capsys, model, code,
                                                       message):
    got, out, err = run(capsys, ["validate", write_json(tmp_path, "m.json", model)])
    assert (got, out) == (code, "")
    assert message in err and err.count("\n") == 1, err


def with_msp1_entry(kind, key, row, col, value):
    """A builder of BASE_MODEL's stations as a custom discipline, with
    entry (row, col) of station 1's matrix `kind`[key] set to `value`."""
    def build(tmp_path):
        model = custom_model(tmp_path, BASE_MODEL)
        model["discipline"]["custom"]["msp1"][kind][key][row][col] = value
        return model
    return build


def with_msp1_shape_1x1(tmp_path):
    model = custom_model(tmp_path, BASE_MODEL)
    model["discipline"]["custom"]["msp1"]["t"]["+0"] = [[-1.0]]
    return model


SWITCH = [[-1.0, 1.0], [1.0, -1.0]]


@pytest.mark.parametrize("model, message", [
    (with_block("arrivals", 1, {"poisson": -1}),
     "arrivals.1: Poisson rate must be >= 0, got -1.0"),
    (with_block("services", 1, {"exponential": 0}),
     "services.1: exponential rate must be > 0, got 0.0"),
    (with_block("services", 1, {"erlang": {"phases": 2, "rate": 0}}),
     "services.1: stage rate must be > 0, got 0.0"),
    (with_block("services", 1, {"hyperexponential": {"weights": [0.5, 0.5], "rates": [1.0]}}),
     "services.1: weights and rates differ in length"),
    (with_block("services", 1, {"hyperexponential": {"weights": [0.5, 0.5],
                                                     "rates": [1.0, 0.0]}}),
     "services.1: every branch rate must be > 0"),
    (with_block("arrivals", 1, {"mmpp": {"switch": SWITCH, "rates": [1.0]}}),
     "arrivals.1: rates length must match the generator size"),
    (with_block("arrivals", 1, {"mmpp": {"switch": SWITCH, "rates": [1.0, -0.5]}}),
     "arrivals.1: arrival rates must be >= 0"),
    (with_block("arrivals", 1, {"C": [[-1.0, 1.0]], "D": [[1.0, 0.0]]}),
     "arrivals.1: C must be square, got shape (1, 2)"),
    (with_block("services", 1, {"beta": [1.0, 0.0], "H": [[-1.0, 1.0]]}),
     "services.1: H must be square, got shape (1, 2)"),
    (with_msp1_shape_1x1, "discipline: t['+0'] has shape (1, 1), expected (3, 3)"),
    (with_msp1_entry("t", "1*0", 0, 0, -1.0),
     "discipline: completion matrix t['1*0'] has a negative entry"),
    (with_msp1_entry("u", "+*0", 0, 0, -1.0), "discipline: u['+*0'] has a negative entry"),
    (with_msp1_entry("t", "00", 0, 1, 0.5), "discipline: t['00'] row sums reach 5.000e-01"),
], ids=["poisson -1", "exponential 0", "erlang rate 0", "hyperexponential lengths",
        "hyperexponential rate 0", "mmpp rates length", "mmpp rate -0.5", "C 1x2", "H 1x2",
        "custom t shape", "custom t negative", "custom u negative", "custom t row sum"])
def test_invalid_model_inputs_are_exit_2(tmp_path, capsys, model, message):
    if callable(model):
        model = model(tmp_path)
    got, out, err = run(capsys, ["validate", write_json(tmp_path, "m.json", model)])
    assert (got, out) == (2, "")
    assert f"invalid model at {message}" in err and err.count("\n") == 1, err


def test_analyze_exit_codes(tmp_path, capsys):
    stable = write_json(tmp_path, "stable.json", BASE_MODEL)
    code, out, _ = run(capsys, ["analyze", stable, "--mode", "closed",
                                "--assume-semi-irreducible"])
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "PositiveRecurrent"
    assert report["r1r2"] == pytest.approx(0.7 * 0.8 / 1.8, abs=1e-12)

    transient = write_json(tmp_path, "transient.json", TRANSIENT_MODEL)
    code, out, _ = run(capsys, ["analyze", transient, "--mode", "closed",
                                "--assume-semi-irreducible"])
    assert code == 1
    assert json.loads(out)["classification"] == "Transient"

    silent = dict(BASE_MODEL)
    silent["arrivals"] = [{"poisson": 0.0}, {"poisson": 0.4}]
    quiet = write_json(tmp_path, "silent.json", silent)
    code, out, _ = run(capsys, ["analyze", quiet, "--mode", "closed",
                                "--assume-semi-irreducible"])
    assert code == 4
    report = json.loads(out)
    assert report["classification"] == "Inconclusive"
    assert any("degenerate" in r for r in report["reasons"])


def test_analyze_artifacts_are_reproducible(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    outs = []
    for tag in ("one", "two"):
        report_path = tmp_path / f"report_{tag}.json"
        spiral_path = tmp_path / f"spiral_{tag}.csv"
        code, _, _ = run(capsys, [
            "analyze", model, "--mode", "closed", "--assume-semi-irreducible",
            "--certificate", "--spiral", "--spiral-csv", str(spiral_path),
            "--out", str(report_path),
        ])
        assert code == 0
        assert (tmp_path / f"report_{tag}.json.meta.json").exists()
        outs.append((report_path.read_bytes(), spiral_path.read_bytes()))
    assert outs[0] == outs[1]

    report = json.loads(outs[0][0])
    assert report["certificate"]["epsilon"] > 0
    assert report["spiralPath"]["contraction"] == pytest.approx(
        report["r1r2"], abs=1e-10)
    lines = outs[0][1].decode().splitlines()
    assert lines[0] == "step,x1,x2,x3,x4"
    assert len(lines) == 6


def test_spiral_csv_without_spiral_holds_the_header_alone(tmp_path, capsys):
    model = write_json(tmp_path, "silent.json", dict(
        README_MODEL, arrivals=[{"poisson": 0.0}, {"poisson": 0.4}]))
    spiral_csv = tmp_path / "spiral.csv"
    spiral_csv.write_text("stale")
    code, out, _ = run(capsys, ["analyze", model, "--mode", "closed",
                                "--assume-semi-irreducible", "--spiral-csv",
                                str(spiral_csv)])
    assert code == 4 and json.loads(out)["spiralPath"] is None
    assert spiral_csv.read_text() == "step,x1,x2,x3,x4\n"


def test_analyze_numeric_fallback_for_asymmetric_limited(tmp_path, capsys):
    # the asymmetric (1,4)-limited stations written as a custom discipline
    # have no closed form: "both" degrades to the numeric table with an
    # explanatory note and still classifies
    asym = custom_model(tmp_path, dict(BASE_MODEL, discipline={"limited": {"K": 4}}))
    path = write_json(tmp_path, "asym.json", asym)
    code, out, _ = run(capsys, [
        "analyze", path, "--mode", "both", "--assume-semi-irreducible",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "PositiveRecurrent"
    assert any("closed form unavailable" in note for note in report["notes"])
    assert report["driftTable"]["closed"] is None
    assert report["driftTable"]["numeric"] is not None


def test_failed_faces_write_standard_json(tmp_path, capsys, monkeypatch):
    # a face whose solve fails has no residual or tail mass: the report
    # says null, not the non-standard Infinity.  Every face solver fails:
    # face N's dense LU and the other faces' QBD solves.  The README
    # stations are written as custom MSPs whose u["+*+"] is not the
    # identity, so faces 14 and 23 are solved in 2-D too.
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    def singular_lu(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(spla, "spilu", singular)
    monkeypatch.setattr(np.linalg, "solve", face_solves_only(singular_lu, np.linalg.solve))
    readme = custom_model(tmp_path, dict(BASE_MODEL, services=[
        {"exponential": m} for m in (5.0, 2.4, 5.0, 2.2)]))
    for msp in readme["discipline"]["custom"].values():
        # the other-class phase moves to the background phase
        msp["u"]["+*+"][2] = [0.0, 1.0, 0.0]
    model = write_json(tmp_path, "readme.json", readme)
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, ["analyze", model, "--mode", "numeric",
                              "--assume-semi-irreducible", "--out", str(out)])
    assert code == 4

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(out.read_text(), parse_constant=refuse)
    faces = report["driftTable"]["numeric"]
    assert len(faces) == 5
    for face in faces:
        assert face["diagnostics"]["residual"] is None
        assert face["diagnostics"]["tailMass"] is None
        path = "dense-lu" if face["subset"] == [1, 2, 3, 4] else "qbd"
        assert f"{path} failed: LinAlgError" in face["diagnostics"]["note"]


# (1,K)-limited models outside the symmetric exponential case, with the
# r1*r2 of their closed form: the README rates at K = 4, MMPP class-1
# arrivals with Erlang-2 and hyperexponential services (S0 = 50), and
# feedback p = 0.4
LIMITED_CROSS_CHECKS = {
    "asym-k4": (dict(README_MODEL, discipline={"limited": {"K": 4}}), 0.08023188948473457),
    "phmap-k2": (dict(LIMITED_MODEL, arrivals=[
        {"mmpp": {"switch": [[-1.0, 1.0], [1.0, -1.0]], "rates": [0.7, 1.3]}},
        {"poisson": 1.0},
    ], services=[
        {"erlang": {"phases": 2, "rate": 10.0}},
        {"exponential": 1.8},
        {"hyperexponential": {"weights": [0.4, 0.6], "rates": [10.0, 3.75]}},
        {"exponential": 1.8},
    ]), 0.2039542143600417),
    "feedback-k3": (dict(LIMITED_MODEL, arrivals=[{"poisson": 0.6}, {"poisson": 0.5}],
                         p=0.4, discipline={"limited": {"K": 3}}), 0.04340425531914893),
}


@pytest.mark.parametrize("name", list(LIMITED_CROSS_CHECKS))
def test_limited_closed_form_passes_the_cross_check(tmp_path, capsys, name):
    model, r1r2 = LIMITED_CROSS_CHECKS[name]
    code, out, _ = run(capsys, ["analyze", write_json(tmp_path, "model.json", model),
                                "--mode", "both", "--assume-semi-irreducible"])
    report = json.loads(out)
    assert (code, report["classification"]) == (0, "PositiveRecurrent")
    cross = report["driftTable"]["crossCheck"]
    assert cross["ok"] is True and cross["worst"] <= 1e-6, cross
    assert report["r1r2"] == pytest.approx(r1r2, rel=1e-12)


@pytest.mark.parametrize("model, failed", [
    # priority with mu1 < mu2: queue 2 drains on face 123
    (dict(BASE_MODEL, services=[{"exponential": m} for m in (2.0, 2.4, 4.2, 2.2)]),
     "queue 2 on face 123 needs >0"),
    # symmetric (1,3)-limited with K below (1 - rho1) / rho2 = 3.6: queue 1
    # drains on face N
    (dict(LIMITED_MODEL, services=[{"exponential": m} for m in (10.0, 4.0, 10.0, 4.0)],
          discipline={"limited": {"K": 3}}), "queue 1 on face N needs >0"),
])
def test_closed_mode_leaves_a_failed_sign_condition_to_the_sign_gate(
        tmp_path, capsys, model, failed):
    # both models have a closed table; the verdict is withheld by the sign
    # gate, in a report that names the condition, not by a scope refusal
    code, out, err = run(capsys, ["analyze", write_json(tmp_path, "model.json", model),
                                  "--mode", "closed", "--assume-semi-irreducible"])
    report = json.loads(out)
    assert (code, err, report["classification"]) == (4, "", "Inconclusive")
    assert f"sign condition failed: {failed}" in report["reasons"][0]
    assert report["driftTable"]["closed"] is not None and report["r1r2"] is None


def test_critical_readme_model_is_inconclusive_in_every_mode(tmp_path, capsys):
    # mu4 = 0.96 puts the README model on its threshold: the closed form
    # gives r1*r2 = 1 + 2e-16.  The numeric faces are exact up to
    # round-off, so numeric mode agrees and withholds the verdict too.
    critical = dict(BASE_MODEL, services=[{"exponential": m} for m in (5.0, 2.4, 5.0, 0.96)])
    path = write_json(tmp_path, "critical.json", critical)
    reports = {}
    for mode in ("closed", "numeric", "both"):
        code, out, _ = run(capsys, ["analyze", path, "--mode", mode,
                                    "--assume-semi-irreducible"])
        reports[mode] = json.loads(out)
        assert code == 4, mode
        assert reports[mode]["classification"] == "Inconclusive", mode
    assert abs(reports["numeric"]["r1r2"] - reports["closed"]["r1r2"]) <= 1e-12


def test_analyze_reports_failed_sign_premises(tmp_path, capsys):
    # queue 3 drains faster than it fills even when saturated, so the
    # ratio framework's sign premises fail and the verdict is withheld
    path = write_json(tmp_path, "asym_limited.json", dict(
        LIMITED_MODEL, arrivals=[{"poisson": 0.8}, {"poisson": 0.4}]))
    code, out, _ = run(capsys, [
        "analyze", path, "--mode", "numeric", "--assume-semi-irreducible",
    ])
    assert code == 4
    report = json.loads(out)
    assert report["classification"] == "Inconclusive"
    assert any("sign condition failed" in r for r in report["reasons"])


def test_neither_ratio_condition_variant_is_inconclusive(tmp_path, capsys):
    # every sign condition holds, but the drift ratio |q1/q4| on face N
    # exceeds the one on face 14, and both variants of the ratio
    # conditions need it below: neither holds
    path = write_json(tmp_path, "model.json", dict(
        README_MODEL, arrivals=[{"poisson": 0.8}, {"poisson": 0.2}],
        discipline={"limited": {"K": 4}}))
    for mode in ("closed", "both"):
        code, out, _ = run(capsys, ["analyze", path, "--mode", mode])
        report = json.loads(out)
        assert (code, report["classification"]) == (4, "Inconclusive"), mode
        assert report["reasons"] == ["neither ratio-condition variant holds"]
        assert report["signConditions"]["allHold"] is True
        ratio = report["ratioConditions"]
        assert ratio["variant"] == "Neither"
        assert [(c["pair"], c["relation"]) for c in ratio["comparisons"]] == [
            ("q1/q4", "greater"), ("q3/q2", "less")]
        assert report["r1r2"] == pytest.approx(0.04264120829470372, rel=1e-12)


def expected_limited_ratio(K):
    rho1, rho2 = 1.0 / 5.0, 1.0 / 1.8
    return (rho1 + K * rho2 - 1.0) / (-rho1 + K * (1.0 - rho2))


def test_sweep_visit_budget(tmp_path, capsys):
    model = write_json(tmp_path, "limited.json", LIMITED_MODEL)
    sweep = write_json(tmp_path, "sweep.json",
                       {"parameter": "discipline.K",
                        "values": [1, 2, 3, 4, 5, 6, 7, 8]})
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, ["sweep", model, sweep, "--out", str(out_csv)])
    assert code == 0
    assert (tmp_path / "sweep.csv.meta.json").exists()

    lines = out_csv.read_text().splitlines()
    assert lines[0] == "value,r1,r2,r1r2,classification,note"
    assert len(lines) == 9
    rows = [line.split(",", 5) for line in lines[1:]]

    # K = 1 sits below the critical budget: no ratios, explicit note
    assert rows[0][1] == "" and rows[0][4] == "Inconclusive"
    assert "AssumptionViolated" in rows[0][5]

    for row, K in zip(rows[1:], range(2, 9)):
        r = expected_limited_ratio(K)
        assert float(row[1]) == pytest.approx(r, rel=1e-9)
        assert float(row[3]) == pytest.approx(r * r, rel=1e-9)
        assert row[4] == ("PositiveRecurrent" if K <= 5 else "Transient")

    # identical bytes on a second run
    rerun_csv = tmp_path / "sweep2.csv"
    code, _, _ = run(capsys, ["sweep", model, sweep, "--out", str(rerun_csv)])
    assert code == 0
    assert rerun_csv.read_bytes() == out_csv.read_bytes()


def test_closed_k_sweep_is_pinned(tmp_path, capsys):
    # sha256 of the CSV of kernels whose blocks equal the factor-by-factor
    # np.kron reference: the closed-form ratios and the probes
    model = write_json(tmp_path, "limited3.json",
                       dict(LIMITED_MODEL, discipline={"limited": {"K": 3}}))
    sweep = write_json(tmp_path, "sweep.json",
                       {"parameter": "discipline.K", "values": list(range(2, 9))})
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, ["sweep", model, sweep, "--mode", "closed", "--out", str(out_csv)])
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "1a39ef56d4ceb1c1c88caa3f10634f452ed3c9d5efce98c123adc44609260b8c")


def test_sweep_point_that_fails_the_sign_gate_has_no_ratios(tmp_path, capsys):
    model = write_json(tmp_path, "readme.json", README_MODEL)
    sweep = write_json(tmp_path, "sweep.json",
                       {"parameter": "arrivals.1.rate", "values": [0.0, 0.8]})
    code, out, _ = run(capsys, ["sweep", model, sweep])
    assert code == 0
    header, silent, stable = out.splitlines()
    value, r1, r2, r1r2, classification, note = silent.split(",", 5)
    assert (value, r1, r2, r1r2, classification) == ("0.0", "", "", "", "Inconclusive")
    assert "ratio conditions degenerate" in note
    assert stable == ("0.8,0.7000000000000001,0.4444444444444444,"
                      "0.3111111111111111,PositiveRecurrent,")


# p through a new pattern (0.0), a reused verdict (0.0 again), the first
# pattern with moves at or below RATE_TOL (1e-20) and the first move set
P_SWEEP = {"parameter": "p", "values": [0.3, 0.0, 0.0, 1e-20, 0.2, 0.2]}


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    limited = write_json(tmp_path, "limited.json", LIMITED_MODEL)
    k_sweep = write_json(tmp_path, "sweep.json",
                         {"parameter": "discipline.K", "values": [2, 6]})
    readme = write_json(tmp_path, "readme.json", README_MODEL)
    p_sweep = write_json(tmp_path, "p_sweep.json", P_SWEEP)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    for model, sweep, mode in ((limited, k_sweep, "closed"), (limited, k_sweep, "numeric"),
                               (readme, p_sweep, "closed")):
        assert run(capsys, ["sweep", model, sweep, "--mode", mode,
                            "--out", str(serial)])[0] == 0
        assert run(capsys, ["sweep", model, sweep, "--mode", mode, "--jobs", "2",
                            "--out", str(parallel)])[0] == 0
        assert serial.read_bytes() == parallel.read_bytes(), (sweep, mode)
        if sweep == k_sweep:
            verdicts = [row.split(",")[4] for row in serial.read_text().splitlines()[1:]]
            assert verdicts == ["PositiveRecurrent", "Transient"], mode


def test_sweep_searches_again_only_when_the_move_set_changes(tmp_path, capsys, monkeypatch):
    # the probe searches at the first point and at each point whose move
    # set differs from the last: 0.3, 0.0, 1e-20 and 0.2
    import csv
    from functools import lru_cache

    from netdrift import generator

    searches = []
    search = generator._probe_search.__wrapped__
    monkeypatch.setattr(generator, "_probe_search", lru_cache(maxsize=1)(
        lambda *key: searches.append(key[2:]) or search(*key)))
    model = write_json(tmp_path, "readme.json", README_MODEL)
    sweep = write_json(tmp_path, "sweep.json", P_SWEEP)
    code, out, _ = run(capsys, ["sweep", model, sweep])
    assert code == 0 and searches == [(0,)] * 4
    rows = list(csv.reader(out.splitlines()))[1:]
    for value, row in zip(P_SWEEP["values"], rows):
        report = classify(load_model(write_json(tmp_path, "point.json", apply_parameter(
            README_MODEL, "p", value))), mode="closed")
        assert row == [repr(value), repr(report.r1), repr(report.r2), repr(report.r1r2),
                       report.classification, "; ".join(report.reasons)], value
        assert report.semi_irreducibility == "ConfirmedSemiIrreducible"


def test_unconfirmed_probe_names_its_reason(tmp_path, capsys, monkeypatch):
    # analyze, sweep and validate run one rule and report its reason
    import csv

    from netdrift import generator, stability

    why = "the probe state is not reached from level 0 in background state 0 (0, 0, 0, 0)"
    for module in (generator, stability):
        monkeypatch.setattr(module, "check_semi_irreducible", lambda model: ("Unknown", why))
    model = write_json(tmp_path, "model.json", README_MODEL)
    code, out, _ = run(capsys, ["analyze", model, "--mode", "closed"])
    report = json.loads(out)
    assert (code, report["semiIrreducibility"]) == (4, "Unknown")
    assert report["reasons"] == [f"semi-irreducibility not confirmed: {why}"]

    sweep = write_json(tmp_path, "sweep.json", {"parameter": "p", "values": [0.3]})
    code, out, _ = run(capsys, ["sweep", model, sweep])
    assert code == 0
    assert next(csv.reader(out.splitlines()[1:]))[4:] == [
        "Inconclusive", f"semi-irreducibility not confirmed: {why}"]

    code, out, _ = run(capsys, ["validate", model])
    report = json.loads(out)
    assert code == 0
    assert (report["semiIrreducibility"], report["semiIrreducibilityReason"]) == ("Unknown", why)


def test_sweep_empty_values_writes_header_only(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    sweep = write_json(tmp_path, "sweep.json",
                       {"parameter": "p", "values": []})
    out_csv = tmp_path / "empty.csv"
    code, _, _ = run(capsys, ["sweep", model, sweep, "--out", str(out_csv)])
    assert code == 0
    assert out_csv.read_text() == "value,r1,r2,r1r2,classification,note\n"


def test_sweep_rejects_bad_parameter_path(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    sweep = write_json(tmp_path, "sweep.json",
                       {"parameter": "services.5.rate", "values": [1.0]})
    code, _, err = run(capsys, ["sweep", model, sweep])
    assert code == 2 and "services.5.rate" in err

    # discipline.K is only meaningful for the limited discipline
    sweep_k = write_json(tmp_path, "sweep_k.json",
                         {"parameter": "discipline.K", "values": [2]})
    code, _, err = run(capsys, ["sweep", model, sweep_k])
    assert code == 2


def test_sweep_of_an_erlang_rate_matches_analyze(tmp_path, capsys):
    payload = with_block("services", 1, {"erlang": {"phases": 2, "rate": 8.0}},
                         README_MODEL)
    model = write_json(tmp_path, "model.json", payload)
    sweep = write_json(tmp_path, "sweep.json", {"parameter": "services.1.rate",
                                                "values": [12.0]})
    code, out, _ = run(capsys, ["sweep", model, sweep, "--mode", "closed"])
    assert code == 0
    row = out.splitlines()[1].split(",", 5)
    patched = write_json(tmp_path, "patched.json", with_block(
        "services", 1, {"erlang": {"phases": 2, "rate": 12.0}}, README_MODEL))
    code, out, _ = run(capsys, ["analyze", patched, "--mode", "closed"])
    report = json.loads(out)
    assert (code, report["classification"]) == (0, "PositiveRecurrent")
    assert row == ["12.0", repr(report["r1"]), repr(report["r2"]), repr(report["r1r2"]),
                   "PositiveRecurrent", ""]
    assert report["r1r2"] == 0.3111111111111111


HYPEREXP_SERVICE = {"hyperexponential": {"weights": [0.4, 0.6], "rates": [10.0, 3.75]}}


@pytest.mark.parametrize("model, sweep, code, message", [
    (BASE_MODEL, {"parameter": "services.x.rate", "values": [1.0]}, 2,
     "BadParameterPath: bad index in parameter path 'services.x.rate'"),
    (PHMAP_MODEL, {"parameter": "arrivals.1.rate", "values": [1.0]}, 2,
     "BadParameterPath: arrivals.1.rate: rate sweeps need the poisson shorthand"),
    (with_block("services", 1, HYPEREXP_SERVICE), {"parameter": "services.1.rate",
                                                   "values": [1.0]}, 2,
     "BadParameterPath: services.1.rate: rate sweeps need the exponential or erlang"),
    (BASE_MODEL, {"parameter": 5, "values": [1.0]}, 3,
     "sweep.parameter: expected a string path"),
    (BASE_MODEL, {"parameter": "p", "values": "a"}, 3, "sweep.values: expected a list"),
], ids=["index x", "mmpp rate", "hyperexponential rate", "parameter 5", "values a"])
def test_bad_sweep_files_keep_their_exit_codes(tmp_path, capsys, model, sweep, code,
                                               message):
    got, out, err = run(capsys, ["sweep", write_json(tmp_path, "m.json", model),
                                 write_json(tmp_path, "s.json", sweep)])
    assert (got, out) == (code, "")
    assert message in err and err.count("\n") == 1, err


def test_apply_parameter_paths():
    patched = apply_parameter(BASE_MODEL, "arrivals.1.rate", 1.1)
    assert patched["arrivals"][0]["poisson"] == 1.1
    assert BASE_MODEL["arrivals"][0]["poisson"] == 0.8  # deep copy

    patched = apply_parameter(BASE_MODEL, "services.3.rate", 9.0)
    assert patched["services"][2]["exponential"] == 9.0

    patched = apply_parameter(BASE_MODEL, "p", 0.5)
    assert patched["p"] == 0.5

    with pytest.raises(BadParameterPath):
        apply_parameter(BASE_MODEL, "services.3.mean", 1.0)
    with pytest.raises(BadParameterPath):
        apply_parameter(BASE_MODEL, "arrivals.0.rate", 1.0)


def test_simulate_outputs_are_reproducible(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    snapshots = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"run_{tag}"
        code, _, _ = run(capsys, [
            "simulate", model, "--horizon", "300", "--seed", "7",
            "--replications", "2", "--out", str(out_dir),
        ])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "summary.json", "summary.json.meta.json",
            "trajectory_001.csv", "trajectory_002.csv",
        ]
        snapshots.append((
            (out_dir / "summary.json").read_bytes(),
            (out_dir / "trajectory_001.csv").read_bytes(),
            (out_dir / "trajectory_002.csv").read_bytes(),
        ))
    assert snapshots[0] == snapshots[1]
    summary = json.loads(snapshots[0][0])
    assert summary["replications"] == 2
    assert len(summary["perReplication"]) == 2
    header = snapshots[0][1].decode().splitlines()[0]
    assert header == "t,x1,x2,x3,x4"


@pytest.mark.parametrize("saturate", [None, "N"])
def test_simulate_csv_format_is_pinned(tmp_path, capsys, saturate):
    # the rows as first written: repr of the time, then the four queue
    # lengths, one line per sample of the same trajectory
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    argv = ["simulate", model, "--horizon", "2500", "--seed", "4",
            "--replications", "2", "--out", str(tmp_path / "out")]
    if saturate:
        argv += ["--saturate", saturate]
    assert run(capsys, argv)[0] == 0
    net = load_model(model)
    for idx, seed in enumerate(replication_seeds(4, 2), start=1):
        if saturate:
            traj = simulate_saturated(net, {1, 2, 3, 4}, 2500.0, seed)
        else:
            traj = simulate(net, 2500.0, seed)
            assert traj.n_events > 2 * SAMPLE_CAP  # the stride has doubled
        want = "t,x1,x2,x3,x4\n" + "".join(
            f"{t!r},{x1},{x2},{x3},{x4}\n" for t, (x1, x2, x3, x4) in
            zip(traj.sample_times.tolist(), traj.sample_states.tolist()))
        assert (tmp_path / "out" / f"trajectory_{idx:03d}.csv").read_text() == want


def test_simulate_saturated_agrees_with_table(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    code, out, _ = run(capsys, [
        "simulate", model, "--saturate", "N", "--horizon", "10000",
        "--seed", "12345",
    ])
    assert code == 0
    summary = json.loads(out)
    assert summary["saturated"] == [1, 2, 3, 4]
    assert summary["analytical"]["outputRates"] == [0.0, 2.4, 0.0, 2.2]
    assert summary["analytical"]["provenance"] == "ClosedForm"
    assert all(item["ok"] for item in summary["agreement"]), summary["agreement"]


def test_simulate_argument_errors(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    code, _, err = run(capsys, [
        "simulate", model, "--initial", "1,2,3", "--horizon", "10"])
    assert code == 3 and "four" in err

    code, _, err = run(capsys, [
        "simulate", model, "--initial", "1,2,3,4", "--saturate", "N"])
    assert code == 3


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--burn-in", "1.5"], "--burn-in: expected a fraction in [0, 1)"),
    (["simulate", "--burn-in", "nan"], "--burn-in: expected a fraction in [0, 1)"),
    (["simulate", "--replications", "-1"], "--replications: expected an integer of at least 1"),
    (["simulate", "--seed", "-1"], "--seed: expected an integer of at least 0"),
    (["simulate", "--initial=-1,0,0,0"], "--initial: expected four nonnegative"),
    (["simulate", "--saturate", "5"], "--saturate: expected N or queues in 1..4"),
    (["simulate", "--saturate", "0,1"], "--saturate: expected N or queues in 1..4"),
    (["simulate", "--saturate", ","], "--saturate: expected N or queues in 1..4"),
    (["simulate", "--initial", "1,2,3,4", "--saturate", "N"],
     "--saturate: not allowed with argument --initial"),
    # the start level and the level cap are constants, not options
    (["analyze", "--levels", "4"], "unrecognized arguments: --levels 4"),
    (["analyze", "--cap", "512"], "unrecognized arguments: --cap 512"),
    (["certificate", "--levels", "4", "--cap", "512"],
     "unrecognized arguments: --levels 4 --cap 512"),
    (["sweep", "sweep.json", "--levels", "4", "--cap", "512"],
     "unrecognized arguments: --levels 4 --cap 512"),
    # the probe has one rule, and no radius to set
    (["validate", "--probe-radius", "3"], "unrecognized arguments: --probe-radius 3"),
    (["simulate", "--horizon", "0"], "--horizon: expected a positive finite number"),
    (["simulate", "--horizon", "-1"], "--horizon: expected a positive finite number"),
    (["simulate", "--horizon", "nan"], "--horizon: expected a positive finite number"),
    (["simulate", "--horizon", "inf"], "--horizon: expected a positive finite number"),
    (["sweep", "sweep.json", "--jobs", "0"], "--jobs: expected an integer of at least 1"),
    (["sweep", "sweep.json", "--jobs", "-3"], "--jobs: expected an integer of at least 1"),
    (["simulate", "--replications", "0"], "--replications: expected an integer of at least 1"),
])
def test_bad_numeric_options_are_exit_3(tmp_path, capsys, argv, message):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    code, out, err = run(capsys, [argv[0], model, *argv[1:]])
    assert code == 3 and out == ""
    assert message in err and err.count("\n") == 1, err


def test_unwritable_out_is_exit_3(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["analyze", model, "--mode", "closed",
                                  "--assume-semi-irreducible", "--out", str(target)])
    assert code == 3 and out == ""
    assert f"cannot write {target}" in err and err.count("\n") == 1, err

    regular = tmp_path / "regular"
    regular.write_text("")
    target = regular / "runs"
    code, out, err = run(capsys, ["simulate", model, "--horizon", "10",
                                  "--out", str(target)])
    assert code == 3 and out == ""
    assert f"cannot write {target}" in err and err.count("\n") == 1, err


def test_certificate_command(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", BASE_MODEL)
    code, out, _ = run(capsys, ["certificate", model, "--mode", "closed"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "U", "epsilon", "delta", "leadingMinors", "innerProducts", "gridIndex",
        "subsets",
    }
    assert payload["subsets"] == ["N", "123", "134", "14", "23"]
    assert all(m > 0 for m in payload["leadingMinors"])

    transient = write_json(tmp_path, "transient.json", TRANSIENT_MODEL)
    code, _, err = run(capsys, ["certificate", transient, "--mode", "closed"])
    assert code == 4 and "AssumptionViolated" in err


# README rates with services.4 at 0.96 (1 + 1e-8): r1*r2 = 1 - 1.7e-8, a
# margin thinner than the certificate's construction grid
THIN_MARGIN_MODEL = with_block("services", 4, {"exponential": 0.9600000095999999},
                               README_MODEL)
# the grid's failure, naming its last epsilon and delta as plain floats
NO_CERTIFICATE = re.compile(r"no certificate on the construction grid \(last epsilon "
                            r"[-+.e0-9]+, delta [-+.e0-9]+: leading minor 4 of U is not "
                            r"positive\); the stability margin is thinner than the grid, "
                            r"not refuted")


def test_a_margin_too_thin_to_certify_names_plain_floats(tmp_path, capsys):
    model = write_json(tmp_path, "model.json", THIN_MARGIN_MODEL)
    code, out, _ = run(capsys, ["analyze", model, "--certificate"])
    report = json.loads(out)
    assert (code, report["classification"], report["certificate"]) == (
        0, "PositiveRecurrent", None)
    assert report["r1r2"] == pytest.approx(0.9999999828571439, rel=1e-12)
    assert any(NO_CERTIFICATE.fullmatch(note) for note in report["notes"]), report["notes"]
    code, out, err = run(capsys, ["certificate", model])
    assert (code, out) == (4, "")
    assert NO_CERTIFICATE.fullmatch(err.removeprefix("netdrift: CertificateNotFound: ")
                                    .rstrip("\n")), err


@pytest.mark.parametrize("custom", [False, True], ids=["readme", "custom"])
@pytest.mark.parametrize("mode", [None, "both", "numeric"], ids=["default", "both", "numeric"])
def test_certificate_from_a_numeric_table_verifies(tmp_path, capsys, mode, custom):
    # the README model, and its stations written as a custom discipline,
    # which has no closed form: "both" then certifies the numeric table
    payload = custom_model(tmp_path, README_MODEL) if custom else README_MODEL
    model = write_json(tmp_path, "model.json", payload)
    code, out, _ = run(capsys, ["certificate", model, *(["--mode", mode] if mode else [])])
    assert code == 0
    cert = json.loads(out)
    table = drift_table(load_model(model), mode=mode or "both")
    assert (table.closed is None) == (custom or mode == "numeric")
    assert verify_certificate(np.array(cert["U"]), table) == (cert["leadingMinors"],
                                                              cert["innerProducts"])


@pytest.mark.parametrize("arrivals, p, queue", [
    ([0.8, 0.0], 0.0, 3),   # no class-3 work: queue 3's drifts are 0
    ([0.0, 0.4], 0.3, 1),   # no class-1 work: queue 1's drifts are 0
])
def test_certificate_of_marginal_drifts_is_undecided(tmp_path, capsys, arrivals, p, queue):
    model = write_json(tmp_path, "model.json", dict(
        README_MODEL, arrivals=[{"poisson": lam} for lam in arrivals], p=p))
    code, out, err = run(capsys, ["certificate", model, "--mode", "closed"])
    assert (code, out) == (4, "")
    assert err.startswith("netdrift: SignConditionViolated: ratio conditions degenerate")
    assert f"drift of queue {queue} on face N is within" in err
    # every failed sign condition is marginal: analyze withholds the
    # ratios with the verdict
    for mode in ("closed", "both"):
        code, out, _ = run(capsys, ["analyze", model, "--mode", mode,
                                    "--assume-semi-irreducible"])
        report = json.loads(out)
        assert (code, report["classification"]) == (4, "Inconclusive")
        assert report["reasons"] and all(
            r.startswith("ratio conditions degenerate") for r in report["reasons"])
        assert (report["r1"], report["r2"], report["r1r2"]) == (None, None, None)
        assert report["ratioConditions"] is None


def test_unexpected_errors_are_exit_5(tmp_path, capsys, monkeypatch):
    from netdrift import stability

    model = write_json(tmp_path, "model.json", BASE_MODEL)

    def boom(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(stability, "classify", boom)
    code, _, err = run(capsys, ["analyze", model, "--mode", "closed"])
    assert code == 5
    assert "internal defect" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize("service, discipline, where", [
    ({"erlang": {"phases": 1e308, "rate": 8.0}}, "non_preemptive", "services.2"),
    ({"erlang": {"phases": 2 ** 40, "rate": 8.0}}, "non_preemptive", "services.2"),
    ({"exponential": 2.4}, {"limited": {"K": 10 ** 12}}, "discipline"),
])
def test_service_processes_over_max_phases_are_exit_2(tmp_path, capsys, service, discipline,
                                                      where):
    # each of these sizes is one numpy refuses to allocate outright, so a
    # check that failed would end in a traceback (exit 5), not in a real allocation
    model = copy.deepcopy(BASE_MODEL)
    model["services"][1], model["discipline"] = service, discipline
    code, _, err = run(capsys, ["validate", write_json(tmp_path, "m.json", model)])
    assert code == 2, err
    assert f"invalid model at {where}" in err and "MAX_PHASES = 1024" in err, err


def simulate_asym_k4_face_14(tmp_path, capsys, model):
    """`simulate --saturate 1,4` of `model`: its summary, after checking
    the exit code and that every queue agrees with the reference."""
    code, out, _ = run(capsys, ["simulate", write_json(tmp_path, "asym4.json", model),
                                "--saturate", "1,4", "--horizon", "4000", "--seed", "7"])
    assert code == 0
    summary = json.loads(out)
    assert [a["queue"] for a in summary["agreement"]] == [1, 2, 3, 4]
    assert all(a["ok"] for a in summary["agreement"]), summary["agreement"]
    return summary


def test_simulate_saturated_agrees_with_a_numeric_face(tmp_path, capsys):
    # the README model's (1,4)-limited stations written as a custom
    # discipline have no closed form: the reference is face 14's own
    # numeric solve
    model = custom_model(tmp_path, dict(README_MODEL, discipline={"limited": {"K": 4}}))
    summary = simulate_asym_k4_face_14(tmp_path, capsys, model)
    assert summary["analytical"]["provenance"] == "Numeric"


def test_simulate_saturated_asym_limited_agrees_with_the_closed_form(tmp_path, capsys):
    model = dict(README_MODEL, discipline={"limited": {"K": 4}})
    summary = simulate_asym_k4_face_14(tmp_path, capsys, model)
    assert summary["analytical"]["provenance"] == "ClosedForm"


@pytest.mark.parametrize("saturate", [None, "N"])
def test_simulate_too_short_for_an_estimate_has_no_reference(tmp_path, capsys, saturate):
    argv = ["simulate", write_json(tmp_path, "model.json", README_MODEL),
            "--horizon", "0.5", "--seed", "3"]
    code, out, err = run(capsys, argv + (["--saturate", saturate] if saturate else []))
    assert (code, err) == (0, "")
    summary = json.loads(out)
    (replication,) = summary["perReplication"]
    assert replication["driftEstimate"] is None
    assert replication["note"].endswith("sample points after burn-in; at least 100 required")
    assert (summary["analytical"], summary["agreement"]) == (None, None)


def test_simulate_without_a_drift_entry_has_no_reference(tmp_path, capsys, monkeypatch):
    # face 124 is not canonical, so neither table has it; face 14 of the
    # custom (1,4)-limited stations has no closed form, and its numeric
    # solve fails under a state budget below S0
    from netdrift import induced_chains

    readme = write_json(tmp_path, "readme.json", README_MODEL)
    custom = write_json(tmp_path, "custom.json", custom_model(
        tmp_path, dict(README_MODEL, discipline={"limited": {"K": 4}})))
    monkeypatch.setattr(induced_chains, "MAX_STATES", 1)
    for model, saturate in ((readme, "1,2,4"), (custom, "1,4")):
        code, out, err = run(capsys, ["simulate", model, "--saturate", saturate,
                                      "--horizon", "100", "--seed", "3"])
        assert (code, err) == (0, ""), saturate
        summary = json.loads(out)
        assert summary["perReplication"][0]["driftEstimate"] is not None, saturate
        assert (summary["analytical"], summary["agreement"]) == (None, None), saturate
