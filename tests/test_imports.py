"""Parsing, simulation, validation, closed-mode sweeps, the truncated
generator's assembly and the face solves of the small and the limited
bench models load numpy alone, and
not numpy.ma where numpy leaves it unloaded; scipy waits for the first
face solved on its box by ILU-GMRES.  `import netdrift` loads no
submodule, and each command loads only the netdrift modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netdrift

# the public API: each submodule and the names `netdrift` exports from it
EXPORTS = {
    "errors": ["NetdriftError"],
    "generator": ["BlockKernel", "check_semi_irreducible", "kernel_of", "regime_signature"],
    "induced_chains": ["CANONICAL_SUBSETS", "DriftTable", "build_induced_chain",
                       "closed_form_table", "drift_table", "nominal_condition",
                       "numeric_table", "output_rates", "solve_stationary", "subset_name"],
    "primitives": ["MAPSpec", "PHSpec", "erlang_ph", "exponential_ph",
                   "hyperexponential_ph", "map_arrival_rate", "map_stationary_phase",
                   "mmpp_map", "ph_mean", "poisson_map", "validate_map", "validate_ph"],
    "service_disciplines": ["MSPSpec", "NetworkModel", "build_limited_msp",
                            "build_network", "build_nonpreemptive_msp",
                            "build_preemptive_resume_msp", "validate_msp"],
    "simulator": ["DriftEstimate", "Trajectory", "estimate_drift", "simulate",
                  "simulate_saturated"],
    "stability": ["LyapunovCertificate", "StabilityReport", "check_ratio_conditions",
                  "check_sign_conditions", "classify", "compute_r1_r2",
                  "lyapunov_certificate", "spiral_path", "verify_certificate"],
}

README_MODEL = {
    "arrivals": [{"poisson": 0.8}, {"poisson": 0.4}],
    "services": [
        {"exponential": 5.0},
        {"exponential": 2.4},
        {"exponential": 5.0},
        {"exponential": 2.2},
    ],
    "p": 0.3,
    "discipline": "non_preemptive",
}

# two-phase arrivals, so the MAP connectivity check runs
MMPP_MODEL = dict(README_MODEL, arrivals=[
    {"mmpp": {"switch": [[-0.5, 0.5], [1.0, -1.0]], "rates": [1.2, 0.4]}},
    {"poisson": 0.4},
])

# symmetric (1,3)-limited: solved as QBDs, its 2-D faces hold 200 phases;
# on their boxes they keep classes of 900 states and up
LIMITED_MODEL = dict(README_MODEL, arrivals=[{"poisson": 1.0}, {"poisson": 1.0}],
                     services=[{"exponential": m} for m in (5.0, 1.8, 5.0, 1.8)],
                     p=0.0, discipline={"limited": {"K": 3}})

# asymmetric (1,4)-limited, S0 = 36
ASYM_MODEL = dict(README_MODEL, discipline={"limited": {"K": 4}})

# runs in a fresh interpreter: other tests in this process import scipy
SCRIPT = """
import json, sys

def no_scipy(step):
    loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
    assert not loaded, f"{step} loaded {loaded[:5]}"

model, mmpp, limited, asym, out = sys.argv[1:6]
import numpy
# numpy 1.x imports numpy.ma with numpy; 2.x only on demand (np.unique)
ma_on_demand = "numpy.ma" not in sys.modules
import netdrift
no_scipy("import netdrift")
from netdrift.cli import load_model, main
no_scipy("import netdrift.cli")
load_model(model)
load_model(mmpp)
no_scipy("load_model")
assert main(["simulate", model, "--saturate", "N", "--horizon", "400",
             "--seed", "3", "--replications", "2", "--out", out + "/sat"]) == 0
summary = json.load(open(out + "/sat/summary.json"))
assert summary["agreement"] is not None
no_scipy("simulate --saturate N")
assert main(["simulate", model, "--horizon", "200", "--seed", "3",
             "--out", out + "/plain"]) == 0
no_scipy("simulate")
assert main(["validate", model, "--out", out + "/valid.json"]) == 0
assert json.load(open(out + "/valid.json"))["semiIrreducibility"] == "ConfirmedSemiIrreducible"
no_scipy("validate")
with open(out + "/sweep.json", "w") as fh:
    json.dump({"parameter": "services.4.rate", "values": [0.9, 1.5]}, fh)
assert main(["sweep", model, out + "/sweep.json", "--mode", "closed",
             "--out", out + "/sweep.csv"]) == 0
assert len(open(out + "/sweep.csv").read().splitlines()) == 3
no_scipy("sweep --mode closed")
assert main(["analyze", model, "--certificate", "--spiral",
             "--out", out + "/report.json"]) == 0
no_scipy("analyze")
for name, path in (("limited", limited), ("asym", asym)):
    assert main(["analyze", path, "--mode", "both", "--assume-semi-irreducible",
                 "--out", f"{out}/{name}-report.json"]) == 0
    no_scipy(f"analyze {name}")
assert not (ma_on_demand and "numpy.ma" in sys.modules), "analyze loaded numpy.ma"
from netdrift.generator import lattice_triplets
kernel = netdrift.kernel_of(load_model(model))
lattice_triplets(kernel.q_blocks, (2,) * 4, kernel.S0)
no_scipy("lattice_triplets")
# faces over the QBD size rule are solved on their boxes; the README
# rates at K = 12 (S0 = 196) keep 1-D boxes over DENSE_STATES, for ILU-GMRES
import netdrift.induced_chains
netdrift.induced_chains.QBD_PHASES = 0
with open(out + "/k12.json", "w") as fh:
    json.dump(dict(json.load(open(asym)), discipline={"limited": {"K": 12}}), fh)
assert main(["analyze", out + "/k12.json", "--assume-semi-irreducible",
             "--out", out + "/k12-box.json"]) == 0
assert "scipy.sparse" in sys.modules
"""


# runs in a fresh interpreter: prints the netdrift submodules loaded after
# `import netdrift`, after parsing the model and after running the command
FOOTPRINT = """
import json, sys

def loaded():
    return sorted(k[len("netdrift."):] for k in sys.modules if k.startswith("netdrift."))

steps = {}
import netdrift
steps["import"] = loaded()
from netdrift.cli import load_model, main
load_model(sys.argv[1])
steps["load_model"] = loaded()
steps["code"] = main(sys.argv[2:])
steps["command"] = loaded()
print(json.dumps(steps))
"""

ANALYSIS = {"generator", "induced_chains", "simulator", "stability"}


def _fresh_env():
    src = str(Path(netdrift.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("command, options, absent", [
    ("validate", [], {"induced_chains", "simulator", "stability"}),
    ("simulate", ["--horizon", "200", "--seed", "3"], {"induced_chains", "stability"}),
    ("analyze", ["--mode", "both"], {"simulator"}),
])
def test_each_command_loads_only_its_modules(tmp_path, command, options, absent):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(README_MODEL))
    argv = [command, str(model), *options, "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, str(model), *argv],
                          capture_output=True, text=True, env=_fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps["import"] == []
    assert not ANALYSIS & set(steps["load_model"]), steps["load_model"]
    assert steps["code"] == 0
    assert not absent & set(steps["command"]), steps["command"]


def test_every_public_name_resolves_to_its_defining_module():
    exported = [name for names in EXPORTS.values() for name in names]
    assert sorted(netdrift.__all__) == sorted([*EXPORTS, *exported])
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"netdrift.{module_name}")
        assert getattr(netdrift, module_name) is module
        for name in names:
            value = getattr(module, name)
            assert getattr(netdrift, name) is value, name
            # defined there, not imported from another module
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(netdrift.__all__) <= set(dir(netdrift))
    namespace = {}
    exec("from netdrift import *", namespace)
    assert set(netdrift.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        netdrift.no_such_name


def test_parse_and_simulate_load_no_scipy(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(README_MODEL))
    mmpp = tmp_path / "mmpp.json"
    mmpp.write_text(json.dumps(MMPP_MODEL))
    limited = tmp_path / "limited.json"
    limited.write_text(json.dumps(LIMITED_MODEL))
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps(ASYM_MODEL))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(model), str(mmpp), str(limited), str(asym),
         str(tmp_path)],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
