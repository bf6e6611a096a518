"""The runtime needs numpy only: scipy is a test-time oracle.  The
trainers, the bound checks and the factorization run with scipy blocked,
and importing the package starts no executor machinery."""

import os
import subprocess
import sys
from pathlib import Path

import deeplin

SRC = str(Path(deeplin.__file__).resolve().parents[1])

WITHOUT_SCIPY = r"""
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())

import numpy as np

import deeplin
from deeplin import cli, verify
from deeplin.trainers import RUNNERS, StepSchedule, TrainerConfig

phi = np.array([[1.2, 0.4], [-0.3, 0.9]])
extra = {
    "gd": {},
    "penalty_gd": {"kappa": 0.5},
    "step_and_project": {"gamma": 1.0, "psi": 0.5},
    "power_projection": {"gamma": 0.5},
}
for name, run in RUNNERS.items():
    cfg = TrainerConfig(name, 2, 3, StepSchedule("constant", 0.05), max_iters=5, **extra[name])
    assert len(run(phi, cfg).losses) == 6, name
net = deeplin.DeepLinearNet(np.eye(2) + 0.05 * np.arange(12.0).reshape(3, 2, 2) / 11.0)
for check in (verify.check_gradient_lower_bound, verify.check_hessian_upper_bound):
    assert check(net, 0.5 * phi).status == "pass", check.__name__
res = deeplin.balanced_factorization(phi, 4)
assert res.reconstruction_residual < 1e-12
deeplin.write_matrix_csv(phi, sys.argv[1])
assert cli.main(["factor", sys.argv[1], "--layers", "3"]) == 0
assert "scipy" not in sys.modules
"""


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_runtime_runs_without_scipy(tmp_path):
    done = _run(WITHOUT_SCIPY, str(tmp_path / "phi.csv"))
    assert done.returncode == 0, done.stderr
    assert "factor 1:" in done.stdout


def test_import_loads_no_executor_modules():
    # the sweep's process pool and the recorder's thread pool import theirs
    # when first made
    done = _run(
        "import sys, deeplin; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
