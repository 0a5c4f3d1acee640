"""The four benchmark workloads and the CLI command each one mirrors.

- ``validation``: bundled validation.yaml (24 h, regular drivers only). The
  event loop, Dijkstra replanning and BPR do all the work; no rider exists,
  so the matcher is bypassed. Match latency here comes from probe requests
  made after each replication (see ``harness.probe_matcher``).
- ``carpool-sweep``: bundled sweep.yaml at levels 1.0/0.75/0.5/0.25, the
  paper's headline experiment and the only congested workload. The
  background carpool stream writes link state that the matcher reads.
- ``rideshare-dense``: sweep shares on the LA testbed, 8 h, demand scale
  0.05. The offer scan over every vehicle ever created is the largest layer.
- ``multihop-grid``: a generated 4x4 grid (``grid.py``), the only workload
  whose riders transfer between drivers, so the only one that exercises
  Pareto labels, used-driver sets and multi-driver commits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ridesim.config import bundled_data_path

from grid import write_grid_scenario

SCENARIOS = Path(__file__).resolve().parent / "scenarios"


@dataclass(frozen=True)
class Plan:
    name: str
    command: str            # CLI command mirrored: validate | sweep | run
    config_path: Path
    replications: int
    iteration_s: float      # seconds of one untraced iteration with its checks
    overrides: dict = field(default_factory=dict)
    probes: bool = False
    needs_multi_leg: bool = False


def make_plan(name: str, workdir: Path, tiny: bool) -> Plan:
    """The workload's plan; ``tiny`` shrinks it for the smoke test."""
    short = {"horizon": 2.0} if tiny else {}
    if name == "validation":
        # a shorter day breaks the validation threshold, so tiny keeps 24 h
        return Plan(name, "validate", bundled_data_path("validation.yaml"),
                    1 if tiny else 3, 5.0, probes=True)
    if name == "carpool-sweep":
        return Plan(name, "sweep", bundled_data_path("sweep.yaml"),
                    1 if tiny else 2, 1.5, short)
    if name == "rideshare-dense":
        return Plan(name, "run", SCENARIOS / "rideshare_dense.yaml", 1, 1.35, short)
    if name == "multihop-grid":
        path = write_grid_scenario(workdir, horizon=1.5 if tiny else 4.0)
        return Plan(name, "run", path, 1, 2.0, needs_multi_leg=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("validation", "carpool-sweep", "rideshare-dense", "multihop-grid")
