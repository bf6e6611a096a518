"""The public API's contract, checked on drawn inputs (property-based
testing after Claessen & Hughes, 2000, "QuickCheck", ICFP): every call that
takes a config or a matrix returns, or raises ConfigError, NumericError or
a ValueError that the package itself raises, and the CLI exits 0 to 3."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import deeplin
from deeplin import cli
from deeplin.errors import ConfigError, NumericError
from deeplin.factor import balanced_factorization
from deeplin.lab import (
    CHECK_NAMES, TARGET_KINDS, ScenarioConfig, TargetSpec, make_target, run_scenario,
)
from deeplin.network import DeepLinearNet
from deeplin.project import IdentityBall, project_gamma_positive, project_identity_ball
from deeplin.trainers import RUNNERS, StepSchedule, TrainerConfig
from deeplin.verify import check_gradient_lower_bound, check_hessian_upper_bound, fd_gradient_check

PACKAGE = Path(deeplin.__file__).parent

# 0, subnormals, the ends of the float range, inf and NaN
SPECIAL = st.sampled_from([
    0.0, -0.0, 5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300,
    math.inf, -math.inf, math.nan,
])
WRONG = st.sampled_from(["1", None, True, (), [0.5], 1j, {"eta": 0.1}])


def mostly(common, rare):
    """``common`` seven times in eight, else ``rare``."""
    return st.integers(0, 7).flatmap(lambda k: common if k else rare)


FLOATS = mostly(st.floats(0.0, 2.0), SPECIAL)


def tuples(elements, lo, hi):
    return st.lists(elements, min_size=lo, max_size=hi).map(tuple)


@st.composite
def arrays(draw, shape):
    """An array of drawn entries, one of which may be special, or a stack of
    scaled identities, or something that is no float array of that shape."""
    form = draw(st.sampled_from(["entries"] * 3 + ["scaled"] * 3 + ["other"] * 2))
    if form == "entries":
        size = math.prod(shape)
        out = np.array(draw(tuples(st.floats(-2.0, 2.0), size, size)))
        out[draw(st.integers(0, size - 1))] = draw(mostly(st.just(out[0]), SPECIAL))
        return out.reshape(shape)
    if form == "scaled":
        out, diag = np.zeros(shape), np.arange(shape[-1])
        out[..., diag, diag] = draw(mostly(st.floats(-2.0, 2.0), SPECIAL))
        return out
    return draw(st.one_of(WRONG, st.sampled_from([
        np.ones((2, 3)), [["a", "b"], ["c", "d"]], [[1j, 0.0], [0.0, 1.0]],
    ])))


@st.composite
def spoiled(draw, configs):
    """A drawn config, or the same with one field set to a special float or
    a value of the wrong type."""
    cfg = draw(configs)
    name = draw(mostly(st.none(), st.sampled_from([f.name for f in dataclasses.fields(cfg)])))
    if name is None:
        return cfg
    return dataclasses.replace(cfg, **{name: draw(st.one_of(SPECIAL, WRONG))})


def trainers(d):
    schedules = st.builds(
        StepSchedule, mode=st.sampled_from(["constant", "sequence", "admissible", "default"]),
        eta=mostly(st.floats(0.0, 0.2), SPECIAL), etas=tuples(FLOATS, 1, 3),
    )
    return st.builds(
        TrainerConfig, algorithm=st.sampled_from(sorted(RUNNERS)), d=st.just(d),
        L=st.integers(1, 4), schedule=spoiled(schedules), gamma=FLOATS, psi=FLOATS,
        kappa=mostly(st.floats(0.0, 1.0), SPECIAL),
        # iteration counts stay small: a long run is no contract failure
        max_iters=st.integers(0, 20), epsilon=FLOATS, record_spectra=st.booleans(),
        record_layers=st.booleans(), penalty_canonical=st.booleans(),
    )


def targets(d):
    return st.builds(
        TargetSpec, kind=st.sampled_from(TARGET_KINDS), d=st.just(d),
        eigenvalues=tuples(FLOATS, d, d), angles=tuples(FLOATS, 0, d // 2), scale=FLOATS,
        reflection_coeffs=tuples(FLOATS, 2, 2), lam=FLOATS, excess_loss=FLOATS,
        entries=arrays((d, d)).map(lambda a: tuple(map(tuple, np.atleast_2d(a).tolist()))),
        seed=st.integers(0, 5),
    )


@st.composite
def cases(draw):
    """Configs and matrices that share one dimension d, and the arguments
    of the calls that take no config."""
    d = draw(st.integers(1, 3))
    target, trainer = draw(spoiled(targets(d))), draw(spoiled(trainers(d)))
    scenario = draw(spoiled(st.builds(
        ScenarioConfig, scenario_id=st.just("drawn"), target=st.just(target),
        trainer=st.just(trainer), checks=tuples(st.sampled_from(CHECK_NAMES), 0, 3),
    )))
    runners = st.sampled_from(sorted(RUNNERS))
    if isinstance(trainer.algorithm, str) and trainer.algorithm in RUNNERS:
        runners = mostly(st.just(trainer.algorithm), runners)
    return dict(
        scenario=scenario, target=target, trainer=trainer, runner=draw(runners),
        phi=draw(arrays((d, d))), layers=draw(arrays((draw(st.integers(1, 3)), d, d))),
        gamma=draw(st.one_of(FLOATS, WRONG)),
        L=draw(st.one_of(st.integers(-1, 70), SPECIAL, WRONG)),
        radius=draw(st.one_of(FLOATS, WRONG)), psd=draw(st.one_of(st.booleans(), WRONG)),
    )


def keeps_contract(call, *args):
    """Call, and assert that it returned or raised within the contract."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return call(*args)
    except (ConfigError, NumericError):
        return None
    except ValueError as exc:
        raiser = traceback.extract_tb(exc.__traceback__)[-1]
        assert Path(raiser.filename).parent == PACKAGE, f"{exc!r} from {raiser}"
        return None


def exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code


def jsonable(value):
    """``value`` as JSON can hold it; a dataclass becomes an object."""
    if dataclasses.is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value if isinstance(value, (str, int, float, type(None))) else repr(value)


@settings(max_examples=300)
@given(case=cases())
def test_the_public_api_keeps_its_contract(case):
    phi, layers, L = case["phi"], case["layers"], case["L"]
    keeps_contract(RUNNERS[case["runner"]], phi, case["trainer"])
    keeps_contract(make_target, case["target"])
    keeps_contract(run_scenario, case["scenario"])
    keeps_contract(balanced_factorization, phi, L)
    keeps_contract(project_gamma_positive, phi, case["gamma"])
    for a in (phi, layers):
        keeps_contract(lambda: project_identity_ball(a, IdentityBall(case["radius"], case["psd"])))
    for check in (check_gradient_lower_bound, check_hessian_upper_bound, fd_gradient_check):
        keeps_contract(lambda: check(DeepLinearNet(layers), phi))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = Path(tmp, "drawn.json")
        config.write_text(json.dumps(jsonable(case["scenario"])))
        assert exit_code(["run", str(config)]) in (0, 1, 2, 3)
        if isinstance(phi, np.ndarray) and phi.ndim == 2:
            rows = [",".join(map(repr, row)) for row in phi.tolist()]
            matrix = Path(tmp, "drawn.csv")
            matrix.write_text("\n".join([f"d,{len(phi)}", *rows]) + "\n")
            assert exit_code(["factor", str(matrix), "--layers", str(L)]) in (0, 1, 2, 3)
