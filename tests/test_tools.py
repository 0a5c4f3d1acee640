import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "src" / "ridesim" / "data" / "sweep.yaml"


@pytest.mark.parametrize("tool", ["replay.py", "dt_convergence.py"])
@pytest.mark.parametrize("case, message", [
    ("seed", "error: seed -1 outside [0, inf)"),
    ("horizon", "error: horizon -1.0 outside (0, inf)"),
    ("config", "error: config file not found: absent.yaml"),
])
def test_config_error_is_usage_error(tool, case, message, tmp_path):
    """A scenario that ``load_config`` refuses is a usage error, as in
    ``ridesim``: exit 2 and a last line that names the offending field or
    file, no traceback. The seed comes from ``--seed`` where the tool has
    it, and else from the scenario file."""
    args = {"horizon": ["--config", str(SWEEP), "--horizon", "-1"],
            "config": ["--config", "absent.yaml"]}.get(case)
    if case == "seed" and tool == "replay.py":
        args = ["--config", str(SWEEP), "--seed", "-1"]
    elif case == "seed":
        raw = yaml.safe_load(SWEEP.read_text())
        (tmp_path / "seed.yaml").write_text(yaml.safe_dump({**raw, "seed": -1}))
        args = ["--config", str(tmp_path / "seed.yaml")]
    proc = subprocess.run([sys.executable, f"tools/{tool}", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(message)
    assert "Traceback" not in proc.stderr and proc.stdout == ""
