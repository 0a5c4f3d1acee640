"""Golden outputs: the CSV bytes of three shrunk CLI runs, pinned by SHA-256.

Criterion 7 compares two runs of one build; this test compares a run of
the current code against digests recorded from an earlier commit, so any
byte change across commits fails here. The runs are shrunk the way
criterion 7 shrinks them (1.5 h, two replications, seed 5). A change that
alters outputs on purpose must say so and re-record the digests.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import ridesim
from ridesim import cli
from ridesim.cli import EXIT_OK, main
from ridesim.config import bundled_data_path, load_config
from ridesim.dp import solve_itinerary
from ridesim.experiments import run_single
from ridesim.ten import preprocess

from conftest import recorded_networks
from oracle import EnumerationBudgetError, brute_force_itinerary

GOLDEN = {
    "validate/validation.csv":
        "56f80d4fc825ee7a80d4c46968e301b75ae40430348ec1978baab7c649d372e2",
    "sweep/sweep.csv":
        "772e1d86e77a16f48c7a8ba0df3adf9631e1a7592345bb70d1eaa75ed4bbeb9c",
    "run/link_flows.csv":
        "82704446defb689f4daa707a909e3a0234a11cb110204b087ba5620771da8bc4",
    "run/agents.csv":
        "e01ffb83159e4b9c0a29f39241a4a3037549fbfb8a148ef8fa4586627efa9cc8",
    "run/summary.csv":
        "78c6a4ab759a0fb46d5370b41e33c49fc8e100fa7f3903d60e75609060eb1999",
    "run/match_trace.csv":
        "651c4db857a53fc582c068fc7d3f72b684e5b908f4f58b78c70efd5fddf641f8",
    "run/run_meta.json":
        "b43254c90876233eb97c3de05ff198ff9c0678b32a75732a82d7a7589d9761bd",
}


def shrink(tmp_path, name, extra):
    raw = yaml.safe_load(bundled_data_path(name).read_text())
    raw.update({"horizon": 1.5, "replications": 2, **extra})
    raw["network"] = str(bundled_data_path(raw["network"]))
    path = tmp_path / f"quick_{name}"
    path.write_text(yaml.safe_dump(raw))
    return path


def output_digests(tmp_path) -> dict[str, str]:
    val_cfg = shrink(tmp_path, "validation.yaml", {})
    sweep_cfg = shrink(tmp_path, "sweep.yaml", {})
    run_cfg = shrink(tmp_path, "sweep.yaml", {"unused_capacity": 0.25})
    cases = {
        "validate": ["validate", "--config", str(val_cfg)],
        "sweep": ["sweep", "--config", str(sweep_cfg), "--levels", "1.0,0.25"],
        "run": ["run", "--config", str(run_cfg)],
    }
    for name, argv in cases.items():
        out = tmp_path / name
        assert main(argv + ["--seed", "5", "--out", str(out)]) == EXIT_OK
    return {
        key: hashlib.sha256((tmp_path / key).read_bytes()).hexdigest()
        for key in GOLDEN
    }


def test_cli_outputs_match_golden_digests(tmp_path):
    assert output_digests(tmp_path) == GOLDEN


# Runs in a fresh interpreter in which every scipy import fails; prints the
# scipy modules it tried to import or holds, and the golden runs' digests.
WITHOUT_SCIPY = """
import json
import sys
from pathlib import Path

tried = []


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            tried.append(name)
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import ridesim.cli
import test_golden_outputs

digests = test_golden_outputs.output_digests(Path(sys.argv[1]))
held = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"tried": tried, "held": held, "digests": digests}))
"""


def test_cli_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: no ridesim module imports it, and
    the golden runs give the same bytes in a process that cannot."""
    src = Path(ridesim.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["tried"] == [] and result["held"] == []
    assert result["digests"] == GOLDEN



# The printout of the time-step convergence tool on a short sweep run: its
# rider rates are pooled from each replication's ``SimState.rider_summary``.
DT_CONVERGENCE_GOLDEN = "df60fff38e63da1fe97396401639ced1bcdc1a5d30f50ca1c8cfe8a42d3c9ce6"


def test_dt_convergence_printout_matches_golden_digest():
    root = Path(__file__).resolve().parent.parent
    argv = [sys.executable, "tools/dt_convergence.py", "--config", "src/ridesim/data/sweep.yaml",
            "--horizon", "1", "--replications", "2", "--halvings", "1"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DT_CONVERGENCE_GOLDEN

# A run where riders transfer: only such a run shows how the matcher ranks
# itineraries of equal cost, waits and legs, which differ in their transfer
# points (``dp.solve_itinerary``'s canonical order).
MULTI_LEG_GOLDEN = {
    "agents.csv":
        "e6231afd22bfa22811f110e52d6d522d6eebc23919c7e1442f8af028c3b5ab32",
    "match_trace.csv":
        "b864326fb2a7515a4a66b97c7c26e44ac29780baf8708b7c5dd34a8aa765a0de",
}
GRID_SIDE = 4


def write_grid(tmp_path):
    """A 4x4 directed grid whose links run east and south, every second one
    with a carpool lane, and a scenario with one explicit hourly rate on
    every pair an east/south path joins; returns the scenario path."""
    links = []
    for node in range(GRID_SIDE * GRID_SIDE):
        row, col = divmod(node, GRID_SIDE)
        for ok, head in ((col + 1 < GRID_SIDE, node + 1),
                         (row + 1 < GRID_SIDE, node + GRID_SIDE)):
            if ok:
                links.append({"id": len(links), "from": node, "to": head,
                              "length": 6.875, "free_flow_time": 0.125,
                              "has_carpool_lane": len(links) % 2 == 0,
                              "general_lanes": 2})
    (tmp_path / "grid.yaml").write_text(yaml.safe_dump(
        {"nodes": list(range(GRID_SIDE * GRID_SIDE)), "links": links}))
    rates = {
        f"{o}-{d}": 3.5
        for o in range(GRID_SIDE * GRID_SIDE) for d in range(GRID_SIDE * GRID_SIDE)
        if o != d and d // GRID_SIDE >= o // GRID_SIDE and d % GRID_SIDE >= o % GRID_SIDE
    }
    scenario = {
        "network": "grid.yaml", "horizon": 1.5, "replications": 1, "dt": 0.05,
        "demand": {
            "shares": {"rider": 0.25, "rideshare_driver": 0.5, "regular_driver": 0.25},
            "window_flexibility": 0.3, "scale": 1.0, "seats": 3,
            "od_rates": rates, "calibration_fixed_daily": {},
        },
    }
    path = tmp_path / "grid_scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    return path


def test_multi_leg_run_matches_golden_digests(tmp_path, monkeypatch):
    sims = []

    def keep_sim(config):
        sim, report = run_single(config)
        sims.append(sim)
        return sim, report

    monkeypatch.setattr(cli, "run_single", keep_sim)
    out = tmp_path / "out"
    argv = ["run", "--config", str(write_grid(tmp_path)), "--seed", "5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    (sim,) = sims
    assert any(len(result.itinerary.legs) > 1
               for result in sim.match_results.values() if result.matched)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in MULTI_LEG_GOLDEN} == MULTI_LEG_GOLDEN


def test_multi_leg_run_requests_match_oracle(tmp_path):
    """Every request of the run above gets the oracle's itinerary, wherever
    the oracle's enumeration fits its budget; prints how many requests were
    checked and how many went over the budget."""
    kept, sim = recorded_networks(load_config(write_grid(tmp_path), {"seed": 5}))
    checked = skipped = 0
    for ten in kept:
        try:
            oracle = brute_force_itinerary(ten, sim.step_costs)
        except EnumerationBudgetError:
            skipped += 1
            continue
        assert solve_itinerary(preprocess(ten), sim.step_costs) == oracle
        checked += 1
    print(f"grid requests: {checked} equal the oracle's, {skipped} over its budget")
    assert checked >= 100 and skipped <= 2
