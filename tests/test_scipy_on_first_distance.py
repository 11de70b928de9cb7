"""scipy loads on the first distance, not at `import actionlim`.

This test process has scipy loaded already (other test modules import it), so
each check runs in a fresh interpreter.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import actionlim

SRC = str(Path(actionlim.__file__).resolve().parents[1])


def fresh(script: str, *args: str) -> None:
    """Run script in a fresh interpreter that imports this actionlim; fail on its error."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


NO_DISTANCE = """
import contextlib, io, sys
import actionlim
from actionlim import cli, operators, profiles

def unloaded(step):
    assert "scipy" not in sys.modules, f"scipy loaded by {step}"

def exits(argv, code):
    try:
        cli.main(argv)
    except SystemExit as exc:
        assert exc.code == code, (argv, exc.code)
    else:
        raise AssertionError(f"{argv} did not exit")

unloaded("import actionlim")
star = operators.parse_operator_spec("star:4")
assert operators.pq_norm(star, float("inf"), 1) == 1.5
unloaded("pq_norm")
profiles.profile_sample(star, 2, profiles.TestFunctionStrategy(count=3, seed=1))
unloaded("profile_sample")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["limit", "star:4"]) == 0
    unloaded("actionlim limit")
    assert cli.main(["profile", "--graph", "star:4", "--count", "2", "--out", sys.argv[1]]) == 0
    unloaded("actionlim profile")
    for suite in ("norms", "self_adjoint", "regularity", "norm_gap", "adjoint_duality"):
        assert cli.main(["--json", "verify", "--suite", suite]) == 0
        unloaded(f"actionlim verify --suite {suite}")
    exits(["limit", "star:x"], 2)
    unloaded("a usage error")
    exits(["--help"], 0)
    unloaded("--help")
"""


def test_no_distance_loads_no_scipy(tmp_path):
    fresh(NO_DISTANCE, str(tmp_path / "profile"))


@pytest.mark.parametrize("call", [
    "lp_distance(a, b)",
    "hausdorff([a], [b])",
    "lp_distance_bruteforce(a, b)",
])
def test_first_distance_loads_scipy(call):
    fresh(f"""
import sys
from actionlim import empirical, hausdorff, lp_distance, lp_distance_bruteforce, lp_metric
a, b = empirical([(0.0,)]), empirical([(0.5,)])
assert "scipy" not in sys.modules
assert {call}.value == 0.5
from scipy.spatial.distance import cdist
assert lp_metric.cdist is cdist  # later calls go straight to scipy's function
""")
