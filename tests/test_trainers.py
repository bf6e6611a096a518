"""Training loops: hand-checked scalar steps, stopping statuses, schedules.

Scalar oracle used throughout: d=1, L=2, target 2, step 0.1.  Starting from
layers (1, 1) both layer gradients equal -1, so one step lands both layers
on 1.1, and the second step lands them on 1.1 + 0.1 * 1.1 * 0.79 = 1.1869.
"""

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplin import trainers
from deeplin.errors import ConfigError
from deeplin.network import DeepLinearNet, full_gradient
from deeplin.trainers import (
    DIVERGE_LOSS,
    RUNNERS,
    StepSchedule,
    TrainerConfig,
    TrainingTrace,
    admissible_step,
    run_gd,
    run_penalty_gd,
    run_power_projection,
    run_step_and_project,
    step_size_power_projection,
    step_size_symmetric_target,
)
import reference
from conftest import forced_pool
from test_project import per_layer_ball


def scalar_cfg(**kw):
    base = dict(
        algorithm="gd",
        d=1,
        L=2,
        schedule=StepSchedule("constant", 0.1),
        max_iters=2,
        record_layers=True,
    )
    base.update(kw)
    return TrainerConfig(**base)


def test_gd_scalar_hand_steps():
    trace = run_gd(np.array([[2.0]]), scalar_cfg())
    assert trace.status == "budget"
    assert trace.iterations == 2
    assert trace.etas == [0.1, 0.1]
    losses = trace.losses
    assert losses[0] == 0.5
    assert losses[1] == pytest.approx(0.5 * 0.79**2, abs=1e-15)
    l1 = trace.layers[1]
    assert l1[0][0, 0] == 1.1 and l1[1][0, 0] == 1.1
    l2 = trace.layers[2]
    assert l2[0][0, 0] == pytest.approx(1.1869, abs=1e-12)
    assert l2[1][0, 0] == pytest.approx(1.1869, abs=1e-12)


def test_gd_updates_are_simultaneous():
    # a sequential sweep would put layer 2 at 1.099 after one step and near
    # 1.0176 after two; the simultaneous update keeps the layers identical
    trace = run_gd(np.array([[2.0]]), scalar_cfg())
    for layers in trace.layers[1:]:
        assert layers[0][0, 0] == layers[1][0, 0]


def test_gd_step_matches_per_layer_gradient():
    # the gd step is layers - eta * full_gradient, bitwise, at each
    # recorded iterate
    phi = np.random.default_rng(3).standard_normal((3, 3))
    cfg = TrainerConfig(
        "gd", 3, 4, StepSchedule("constant", 0.02), max_iters=3, record_layers=True
    )
    trace = run_gd(phi, cfg)
    for before, after in zip(trace.layers, trace.layers[1:]):
        grads = full_gradient(DeepLinearNet(before), phi)
        np.testing.assert_array_equal(after, before - 0.02 * grads)


def test_gd_converged_at_start():
    cfg = TrainerConfig(
        "gd", 2, 3, StepSchedule("constant", 0.1), max_iters=10, epsilon=1e-15
    )
    trace = run_gd(np.eye(2), cfg)
    assert trace.status == "converged"
    assert trace.iterations == 0
    assert trace.etas == []
    np.testing.assert_array_equal(trace.final_layers[0], np.eye(2))


def test_gd_divergence_keeps_last_finite_iterate():
    cfg = TrainerConfig(
        "gd", 1, 3, StepSchedule("constant", 1.0), max_iters=50, record_layers=True
    )
    trace = run_gd(np.array([[3.0]]), cfg)
    assert trace.status == "diverged"
    assert all(np.isfinite(m).all() for m in trace.final_layers)
    assert trace.losses[-1] <= DIVERGE_LOSS
    assert np.isfinite(trace.losses).all()


DIVERGING = [
    pytest.param("gd", {}, 1.0, id="gd-1"),
    pytest.param("penalty_gd", dict(kappa=0.5), 1.0, id="penalty-1"),
    pytest.param("penalty_gd", dict(kappa=0.5, penalty_canonical=False), 1.0,
                 id="penalty-alt-1"),
    pytest.param("gd", {}, 1e308, id="gd-1e308"),
    pytest.param("penalty_gd", dict(kappa=0.5), 1e308, id="penalty-1e308"),
    pytest.param("penalty_gd", dict(kappa=0.5, penalty_canonical=False), 1e308,
                 id="penalty-alt-1e308"),
    pytest.param("step_and_project", dict(gamma=1.0, psi=0.5), 1e308,
                 id="step_and_project-1e308"),
    pytest.param("power_projection", dict(gamma=0.5), 1e308,
                 id="power_projection-1e308"),
]
@pytest.mark.parametrize("algorithm, extra, eta", DIVERGING)
def test_divergence_keeps_last_finite_iterate(algorithm, extra, eta):
    # eta 1 blows the loss past DIVERGE_LOSS on gd and penalty; eta 1e308
    # makes the stepped iterate, or its product, non-finite on all four
    cfg = TrainerConfig(
        algorithm, 1, 3, StepSchedule("constant", eta), max_iters=50, **extra
    )
    with np.errstate(over="ignore", invalid="ignore"):
        trace = RUNNERS[algorithm](np.array([[3.0]]), cfg)
    assert trace.status == "diverged"
    assert all(np.isfinite(m).all() for m in trace.final_layers)
    assert trace.losses[-1] <= DIVERGE_LOSS
    assert len(trace.etas) == len(trace.losses)


def test_sequence_schedule_repeats_last_step():
    cfg = TrainerConfig(
        "gd", 1, 2, StepSchedule("sequence", etas=(0.2, 0.05)), max_iters=4
    )
    trace = run_gd(np.array([[2.0]]), cfg)
    assert trace.etas == [0.2, 0.05, 0.05, 0.05]


def test_admissible_schedule_bounds_and_descends():
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    phi = q @ np.diag([1.5, 0.5]) @ q.T
    cfg = TrainerConfig(
        "gd", 2, 3, StepSchedule("admissible"), max_iters=200, epsilon=0.0
    )
    trace = run_gd(phi, cfg)
    cap = 1.0 / (3.0 * 3 * 2**5)
    assert all(0.0 < e <= cap for e in trace.etas)
    losses = trace.losses
    assert np.all(np.diff(losses) <= 1e-15)


def test_admissible_step_shrinks_with_radius():
    tight = admissible_step(2, 3, 1.0, 0.0, 0.1)
    loose = admissible_step(2, 3, 1.0, 0.5, 0.1)
    assert loose < tight


def test_trace_monotone_statistics():
    cfg = scalar_cfg(max_iters=30)
    trace = run_gd(np.array([[2.0]]), cfg)
    assert np.all(np.diff(trace.radii) >= 0.0)
    assert np.all(np.diff(trace.u_stats) >= 0.0)
    assert trace.iterations == len(trace.losses) - 1
    assert len(trace.etas) == trace.iterations


def test_step_size_helpers():
    phi = np.diag([2.0, 1.0])
    assert step_size_symmetric_target(phi, 8) == pytest.approx(1.0 / 40.0)
    expected = 1.0 / (3.0 * 4 * 2**5 * 5.0)
    assert step_size_power_projection(phi, 4) == pytest.approx(expected)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        TrainerConfig("gd", 1, 1, StepSchedule("constant", -0.1)).validate()
    with pytest.raises(ConfigError):
        TrainerConfig(
            "gd", 1, 1, StepSchedule("sequence", etas=(0.1, -0.2))
        ).validate()
    with pytest.raises(ConfigError):
        TrainerConfig("nope", 1, 1, StepSchedule("constant", 0.1)).validate()
    with pytest.raises(ConfigError):
        TrainerConfig(
            "power_projection", 2, 2, StepSchedule("constant", 0.1)
        ).validate()
    with pytest.raises(ConfigError):
        TrainerConfig(
            "penalty_gd", 2, 2, StepSchedule("constant", 0.1), kappa=1.5
        ).validate()
    with pytest.raises(ConfigError):
        TrainerConfig("gd", 1, 1, StepSchedule("warp", 0.1)).validate()
    with pytest.raises(ConfigError):
        TrainerConfig(
            "step_and_project", 2, 2, StepSchedule("default"), gamma=1.0
        ).validate()
    with pytest.raises(ConfigError):
        run_gd(np.eye(3), TrainerConfig("gd", 2, 2, StepSchedule("constant", 0.1)))
    # a non-square target is a config error too, not the validator's ValueError
    with pytest.raises(ConfigError):
        run_gd(np.zeros((2, 3)), TrainerConfig("gd", 2, 2, StepSchedule("constant", 0.1)))
    with pytest.raises(ConfigError):
        run_power_projection(
            np.eye(1), scalar_cfg()
        )


def test_power_projection_respects_floor_and_half_losses():
    cfg = TrainerConfig(
        "power_projection", 2, 2, StepSchedule("default"),
        gamma=0.5, max_iters=40, epsilon=0.0,
    )
    trace = run_power_projection(2.0 * np.eye(2), cfg)
    assert trace.status == "budget"
    root = 0.5 ** 0.5
    assert np.all(trace.min_svs >= root - 1e-9)
    assert np.isnan(trace.loss_halves[0])
    assert not np.isnan(trace.loss_halves[1:]).any()
    losses = trace.losses
    assert np.all(np.diff(losses) <= 1e-15)
    # integer-step loss cannot exceed the preceding half-step loss, since
    # the projection target is feasible here
    halves = trace.loss_halves
    assert np.all(losses[1:] <= halves[1:] + 1e-12)


def test_power_projection_fixed_point_is_immediate():
    cfg = TrainerConfig(
        "power_projection", 2, 3, StepSchedule("default"),
        gamma=0.5, max_iters=10, epsilon=0.0,
    )
    trace = run_power_projection(0.5 * np.eye(2), cfg)
    assert trace.status == "converged"
    assert trace.iterations == 0


def test_power_projection_warns_on_thin_margin():
    cfg = TrainerConfig(
        "power_projection", 2, 2, StepSchedule("constant", 0.01),
        gamma=0.5, max_iters=3,
    )
    with pytest.warns(UserWarning):
        run_power_projection(np.diag([-1.0, 1.0]), cfg)


def test_step_and_project_stays_in_ball():
    cfg = TrainerConfig(
        "step_and_project", 2, 2, StepSchedule("constant", 0.05),
        gamma=1.0, psi=0.3, max_iters=50, record_layers=True,
    )
    trace = run_step_and_project(np.diag([2.0, 0.5]), cfg)
    assert trace.status == "budget"
    assert np.all(trace.radii <= 0.3 + 1e-12)
    for layers in trace.layers:
        for m in layers:
            dev = np.linalg.svd(m - np.eye(2), compute_uv=False)[0]
            assert dev <= 0.3 + 1e-12


def test_step_and_project_matches_per_layer_reference(monkeypatch):
    # the stacked projection gives the trace of the one-layer-at-a-time loop
    rng = np.random.default_rng(50)
    fields = ("losses", "loss_halves", "radii", "min_svs", "max_norms", "u_stats",
              "eigenvalues", "layers", "etas", "final_layers", "status")
    for _ in range(8):
        d = int(rng.integers(1, 7))
        L = int(rng.integers(1, 9))
        phi = np.eye(d) + rng.standard_normal((d, d))
        cfg = TrainerConfig(
            "step_and_project", d, L, StepSchedule("constant", float(rng.uniform(0.01, 0.2))),
            gamma=float(rng.uniform(0.5, 1.5)), psi=float(rng.uniform(0.05, 1.0)),
            max_iters=40, record_spectra=True, record_layers=True,
        )
        trace = run_step_and_project(phi, cfg)
        with monkeypatch.context() as m:
            m.setattr(trainers, "project_identity_ball", per_layer_ball)
            ref = run_step_and_project(phi, cfg)
        for name in fields:
            np.testing.assert_array_equal(getattr(trace, name), getattr(ref, name))


def test_recorded_layers_are_capped():
    # (max_iters + 1) L d^2 entries of snapshots would be about 26 GB here
    cfg = TrainerConfig("gd", 16, 64, StepSchedule("constant", 0.01),
                        max_iters=100000, record_layers=True)
    with pytest.raises(ConfigError, match="record_layers"):
        cfg.validate()
    TrainerConfig("gd", 16, 64, StepSchedule("constant", 0.01),
                  max_iters=100000).validate()
    # criteria 5 and 9 record about 360k entries, well inside the cap
    TrainerConfig("gd", 3, 8, StepSchedule("constant", 0.01), max_iters=5000,
                  record_layers=True).validate()


def test_step_and_project_zero_radius_pins_identity():
    # radius zero sends every layer back to I, so the loss never moves
    cfg = TrainerConfig(
        "step_and_project", 2, 2, StepSchedule("constant", 0.1),
        gamma=1.0, psi=0.0, max_iters=5, record_layers=True,
    )
    trace = run_step_and_project(np.diag([2.0, 0.0]), cfg)
    assert trace.status == "budget"
    assert len(trace.losses) == 6
    np.testing.assert_allclose(trace.losses, 1.0, atol=0)
    for layers in trace.layers:
        for m in layers:
            np.testing.assert_array_equal(m, np.eye(2))


def test_penalty_gd_full_pull_zero_step():
    # kappa = 1 with a zero step size is a fixed point at the identity
    cfg = TrainerConfig(
        "penalty_gd", 2, 3, StepSchedule("constant", 0.0),
        kappa=1.0, max_iters=4, record_layers=True,
    )
    trace = run_penalty_gd(np.diag([3.0, 1.0]), cfg)
    assert trace.status == "budget"
    np.testing.assert_allclose(trace.losses, 2.0, atol=0)
    for layers in trace.layers:
        for m in layers:
            np.testing.assert_array_equal(m, np.eye(2))


def test_even_depth_negative_eigenvalue_floor_small():
    # a -0.8 eigenvalue cannot be matched by an even-depth product, so the
    # loss never dips below 0.8^2 / 2
    phi = np.diag([-0.8, 1.0])
    gd_cfg = TrainerConfig(
        "gd", 2, 4, StepSchedule("constant", 0.1), max_iters=300
    )
    pen_cfg = TrainerConfig(
        "penalty_gd", 2, 4, StepSchedule("constant", 0.1),
        kappa=0.05, max_iters=300,
    )
    for trace in (run_gd(phi, gd_cfg), run_penalty_gd(phi, pen_cfg)):
        assert trace.losses.min() >= 0.32 - 1e-12


def test_penalty_gd_two_update_forms():
    phi = np.array([[2.0]])
    common = dict(
        d=1, L=2, schedule=StepSchedule("constant", 0.1),
        kappa=0.5, max_iters=2, record_layers=True,
    )
    canonical = run_penalty_gd(
        phi, TrainerConfig("penalty_gd", penalty_canonical=True, **common)
    )
    alternate = run_penalty_gd(
        phi, TrainerConfig("penalty_gd", penalty_canonical=False, **common)
    )
    # both forms agree at the first step from identity layers
    assert canonical.layers[1][0][0, 0] == pytest.approx(1.1, abs=1e-15)
    assert alternate.layers[1][0][0, 0] == pytest.approx(1.1, abs=1e-15)
    # and separate at the second
    assert canonical.layers[2][0][0, 0] == pytest.approx(1.1369, abs=1e-12)
    assert alternate.layers[2][0][0, 0] == pytest.approx(1.1819, abs=1e-12)


def test_penalty_gd_kappa_one_restarts_from_identity():
    # kappa = 1 in canonical form rebuilds each layer as I - eta * grad,
    # with the gradient still taken at the current iterate
    phi = np.array([[2.0]])
    cfg = TrainerConfig(
        "penalty_gd", 1, 2, StepSchedule("constant", 0.1),
        kappa=1.0, max_iters=3, record_layers=True,
    )
    trace = run_penalty_gd(phi, cfg)
    theta = 1.0
    for layers in trace.layers[1:]:
        expected = 1.0 - 0.1 * theta * (theta**2 - 2.0)
        theta = layers[0][0, 0]
        assert theta == pytest.approx(expected, abs=1e-14)


def test_spectra_recording():
    cfg = TrainerConfig(
        "gd", 2, 2, StepSchedule("constant", 0.05),
        max_iters=5, record_spectra=True,
    )
    trace = run_gd(np.diag([2.0, 0.5]), cfg)
    assert trace.eigenvalues.shape == (len(trace.losses), 2)
    # diagonal dynamics keep the spectrum real
    assert np.abs(np.imag(trace.eigenvalues[-1])).max() == 0.0


def assert_traces_bitwise_equal(trace, ref):
    for f in dataclasses.fields(TrainingTrace):
        a, b = getattr(trace, f.name), getattr(ref, f.name)
        if isinstance(b, (np.ndarray, list, tuple)):
            a, b = np.asarray(a), np.asarray(b)
            assert (a.shape, a.dtype) == (b.shape, b.dtype), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def run_against_reference(phi, cfg, chunk=None):
    """The run, asserted bitwise equal to the reference loop's; with
    ``chunk``, the recorder takes chunks of that many iterates."""
    with pytest.MonkeyPatch.context() as m, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thin margins and overflow
        if chunk:
            m.setattr(trainers, "_CHUNK_ENTRIES", chunk * cfg.L * cfg.d**2)
        trace = RUNNERS[cfg.algorithm](phi, cfg)
        assert_traces_bitwise_equal(trace, reference.run(phi, cfg))
    return trace


# mostly ordinary step sizes; sometimes 0 (the step is a no-op) or one
# that diverges on the loss or in the update
ETAS = st.sampled_from([0.01, 0.03, 0.05, 0.1, 0.2, 0.0, 1.0, 1e308])


@st.composite
def runs(draw):
    """A target, a config, a chunk length and a pool size.  Besides random
    targets, it draws criterion 9's diag(-0.8, 1, 1), on which penalty and
    ball runs stall, and the kappa = 1 penalty run that stays at I while
    its step is 0, with a sequence that may change after that."""
    algorithm = draw(st.sampled_from(list(RUNNERS)))
    shapes = ["random", "criterion-9"] + ["kappa-one"] * (algorithm == "penalty_gd")
    shape = draw(st.sampled_from(shapes))
    d = 3 if shape == "criterion-9" else draw(st.integers(1, 4))
    if shape == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        phi = np.eye(d) + draw(st.sampled_from([0.2, 0.6, 1.5])) * rng.standard_normal((d, d))
    else:
        phi = np.diag([-0.8, 1.0, 1.0] if shape == "criterion-9" else np.linspace(0.5, 2.0, d))
    extra = {}
    if algorithm == "penalty_gd":
        kappas = [1.0] if shape == "kappa-one" else [0.1, 0.3, 0.5, 0.9, 0.0, 1.0]
        extra = dict(kappa=draw(st.sampled_from(kappas)), penalty_canonical=draw(st.booleans()))
    elif algorithm == "step_and_project":
        psi = draw(st.sampled_from([0.0, 0.3, 0.9, 3.0]))
        extra = dict(gamma=draw(st.floats(0.5, 1.5)), psi=psi)
    elif algorithm == "power_projection":
        extra = dict(gamma=draw(st.sampled_from([0.1, 0.5])))
    if shape == "kappa-one":
        schedule = StepSchedule("sequence", etas=(0.0,) * draw(st.integers(1, 8)) + (draw(ETAS),))
    else:
        modes = ["constant", "sequence"] + {"gd": ["admissible", "default"],
                                            "power_projection": ["default"]}.get(algorithm, [])
        etas = tuple(draw(st.lists(ETAS, min_size=1, max_size=4)))
        schedule = StepSchedule(draw(st.sampled_from(modes)), etas[0], etas)
    max_iters = draw(st.integers(0, 60))
    cfg = TrainerConfig(
        algorithm, d, draw(st.integers(1, 6)), schedule, max_iters=max_iters,
        epsilon=draw(st.sampled_from([0.0, 0.0, 0.0, 1e-3, 0.05])),
        record_spectra=draw(st.booleans()), record_layers=draw(st.booleans()), **extra,
    )
    return phi, cfg, draw(st.integers(1, max_iters + 1)), draw(st.integers(0, 3))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(runs())
def test_every_run_matches_the_reference_loop(run):
    phi, cfg, chunk, pool = run
    folded, peek = [], trainers._Recorder._peek

    def spy(rec, n):
        folded.append(max(0, n - rec.seen))
        peek(rec, n)

    with forced_pool(pool), pytest.MonkeyPatch.context() as m:
        m.setattr(trainers._Recorder, "_peek", spy)
        trace = run_against_reference(phi, cfg, chunk)
    # the radius reads fold each row in once, and the snapshots are copies,
    # not views of the loop's two buffers
    assert sum(folded) <= len(trace.losses)
    if trace.layers is not None:
        assert not any(np.shares_memory(trace.layers, layer) for layer in trace.final_layers)


# d=2, L=3 runs with CHUNK iterates per chunk; the target has complex
# eigenvalues, so a chunk of spectra mixes real and complex rows
CHUNK = 5
TARGET = np.array([[1.2, -0.5], [0.5, 1.0]])
ALGORITHM_ARGS = {
    "gd": {},
    "penalty_gd": dict(kappa=0.2),
    "step_and_project": dict(gamma=1.0, psi=0.3),
    "power_projection": dict(gamma=0.5),
}


CHUNKED_CASES = [
    pytest.param(alg, rows, spectra, layers,
                 id=f"{alg}-rows{rows}-spectra{int(spectra)}-layers{int(layers)}")
    for alg in ALGORITHM_ARGS
    for rows in (CHUNK - 1, CHUNK, CHUNK + 1)
    for spectra in (False, True)
    for layers in (False, True)
]


@pytest.mark.parametrize("algorithm, rows, spectra, layers", CHUNKED_CASES)
def test_chunked_recorder_matches_per_iterate_reference(algorithm, rows, spectra, layers):
    # one row short of a chunk, a full chunk, and one row into the next
    cfg = TrainerConfig(
        algorithm, 2, 3, StepSchedule("constant", 0.05), max_iters=rows - 1,
        record_spectra=spectra, record_layers=layers, **ALGORITHM_ARGS[algorithm],
    )
    trace = run_against_reference(TARGET, cfg, CHUNK)
    assert len(trace.losses) == rows


def test_chunked_recorder_stops_mid_chunk():
    both = dict(record_spectra=True, record_layers=True)
    # converged on epsilon at row 12, two rows into the third chunk
    base = TrainerConfig("gd", 2, 3, StepSchedule("constant", 0.05), max_iters=30, **both)
    eps = run_gd(TARGET, base).losses[12]
    trace = run_against_reference(TARGET, dataclasses.replace(base, epsilon=eps), CHUNK)
    assert (trace.status, len(trace.losses)) == ("converged", 13)
    # diverged on the loss after 4 rows, and on a non-finite step after 1
    for eta, rows in ((0.4, 4), (1e308, 1)):
        cfg = TrainerConfig("gd", 1, 3, StepSchedule("constant", eta), max_iters=50, **both)
        trace = run_against_reference(np.array([[3.0]]), cfg, 3)
        assert (trace.status, len(trace.losses)) == ("diverged", rows)


@pytest.mark.parametrize("mode", ["admissible", "default"])
def test_chunked_recorder_radius_feeds_admissible_steps(mode):
    # the admissible bound reads the running radius every step, so the
    # recorder flushes every step; the etas must not move either.  With
    # ||phi||_2 < 1 the bound depends on the radius from the first step.
    cfg = TrainerConfig("gd", 2, 3, StepSchedule(mode), max_iters=3 * CHUNK + 2,
                        record_spectra=True, record_layers=True)
    trace = run_against_reference(TARGET / 2, cfg, CHUNK)
    assert len(trace.etas) == 3 * CHUNK + 2


@pytest.mark.parametrize("algorithm", ALGORITHM_ARGS)
def test_pooled_recorder_many_full_chunks(recorder_pool, algorithm):
    # 15 full chunks of 2 rows through two buffers: each chunk goes to the
    # pool or, while the job runs, is taken inline, as the timing falls
    recorder_pool(2)
    cfg = TrainerConfig(
        algorithm, 2, 3, StepSchedule("constant", 0.05), max_iters=29,
        record_spectra=True, record_layers=True, **ALGORITHM_ARGS[algorithm],
    )
    trace = run_against_reference(TARGET, cfg, 2)
    assert len(trace.losses) == 30
    assert trainers._POOL is not None


def test_pooled_recorder_holds_one_job_and_two_buffers(recorder_pool, monkeypatch):
    recorder_pool(2)
    pool, jobs, slots = trainers._pool(), [], []
    new_slot = trainers._Recorder._new_slot

    class Spy:
        def submit(self, *args):
            # every earlier job was collected, so it is done
            assert all(job.done() for job in jobs)
            jobs.append(pool.submit(*args))
            return jobs[-1]

    def counted(rec):
        slots.append(rec)
        return new_slot(rec)

    spy = Spy()
    monkeypatch.setattr(trainers, "_pool", lambda: spy)
    monkeypatch.setattr(trainers._Recorder, "_new_slot", counted)
    cfg = TrainerConfig("gd", 2, 3, StepSchedule("constant", 0.05), max_iters=29,
                        record_spectra=True, record_layers=True)
    run_against_reference(TARGET, cfg, 2)
    assert jobs and len(slots) <= 2


def test_pooled_recorder_stops_mid_chunk(recorder_pool):
    recorder_pool(2)
    test_chunked_recorder_stops_mid_chunk()
    assert trainers._POOL is not None


@pytest.mark.parametrize("chunk", [1, CHUNK])
def test_pooled_recorder_radius_feeds_admissible_steps(recorder_pool, chunk):
    # full chunks of any length go to the pool while each radius read folds
    # in only the rows added since the last one
    recorder_pool(2)
    cfg = TrainerConfig("gd", 2, 3, StepSchedule("admissible"), max_iters=3 * CHUNK + 2,
                        record_spectra=True, record_layers=True)
    run_against_reference(TARGET / 2, cfg, chunk)
    assert trainers._POOL is not None


def test_inline_recorder_radius_feeds_admissible_steps(recorder_pool):
    # without a pool each full chunk is flushed inline; the radius reads
    # between flushes still fold in only the rows added since
    recorder_pool(0)
    cfg = TrainerConfig("gd", 2, 3, StepSchedule("admissible"), max_iters=3 * CHUNK + 2,
                        record_spectra=True, record_layers=True)
    run_against_reference(TARGET / 2, cfg, CHUNK)
    assert trainers._POOL is None


def test_pooled_recorder_under_a_short_switch_interval(recorder_pool):
    # more threads than this host may have CPUs and a switch every
    # microsecond: a buffer rewritten before its job read it, or a job
    # taken up out of order, would change the trace
    recorder_pool(3)
    cfg = TrainerConfig("power_projection", 2, 3, StepSchedule("constant", 0.05),
                        gamma=0.5, max_iters=199, record_spectra=True, record_layers=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_against_reference(TARGET, cfg, 1)
    finally:
        sys.setswitchinterval(interval)


def test_run_that_fills_no_chunk_starts_no_pool(recorder_pool):
    # a final partial chunk of any size is taken on the caller's thread, so
    # such a run's time does not depend on a pool thread being scheduled
    recorder_pool(2)
    threads = threading.active_count()
    for algorithm in ALGORITHM_ARGS:
        for chunk, rows in ((CHUNK, CHUNK - 1), (300, 2), (300, 171), (300, 299)):
            cfg = TrainerConfig(
                algorithm, 2, 3, StepSchedule("constant", 0.05), max_iters=rows - 1,
                record_spectra=True, record_layers=True, **ALGORITHM_ARGS[algorithm],
            )
            trace = run_against_reference(TARGET, cfg, chunk)
            assert len(trace.losses) == rows
    assert trainers._POOL is None
    assert threading.active_count() == threads


def _pooled_run(monkeypatch):
    # a two-thread pool whatever the host, kept for the process like the
    # pool of a run outside the fixture
    monkeypatch.setattr(trainers, "_pool_size", lambda: 2)
    cfg = TrainerConfig("gd", 2, 3, StepSchedule("constant", 0.05), max_iters=3 * CHUNK,
                        record_spectra=True, record_layers=True)
    run_against_reference(TARGET, cfg, CHUNK)
    assert trainers._POOL is not None


# These three run in this order: a pooled run, a test that requests
# ``recorder_pool`` but never calls it, then a pooled run again, which
# fails if that fixture's teardown shut down the process-wide pool.
def test_process_pool_before_an_unused_fixture(monkeypatch):
    _pooled_run(monkeypatch)


def test_unused_recorder_pool_fixture(recorder_pool):
    pass


def test_process_pool_after_an_unused_fixture(monkeypatch):
    _pooled_run(monkeypatch)


def test_one_cpu_takes_every_chunk_inline(monkeypatch):
    monkeypatch.setattr(trainers.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(trainers.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(trainers, "_POOL", None)
    threads = threading.active_count()
    cfg = TrainerConfig("gd", 2, 3, StepSchedule("constant", 0.05), max_iters=4 * CHUNK,
                        record_spectra=True, record_layers=True)
    run_against_reference(TARGET, cfg, CHUNK)
    assert trainers._POOL is None
    assert threading.active_count() == threads


def test_recorded_layers_are_held_once():
    # the snapshots grow in place a chunk at a time; stacking a list of
    # per-iterate copies at the end used to peak at twice their size
    d, L = 16, 64
    cfg = TrainerConfig("gd", d, L, StepSchedule("constant", 1e-3), max_iters=200,
                        record_layers=True)
    tracemalloc.start()
    try:
        trace = run_gd(1.1 * np.eye(d), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    snapshots = trace.layers.nbytes
    assert snapshots == 201 * L * d * d * 8
    assert peak <= snapshots + 4 * 2**20


# --- the loop's workspace ----------------------------------------------------


PHI3 = np.array([[1.3, -0.6, 0.1], [0.5, 0.9, -0.2], [0.0, 0.3, 1.1]])
WORKSPACE_CASES = {
    "gd": dict(algorithm="gd"),
    "gd-admissible": dict(algorithm="gd", schedule=StepSchedule("admissible")),
    "gd-default": dict(algorithm="gd", schedule=StepSchedule("default")),
    "penalty-canonical": dict(algorithm="penalty_gd", kappa=0.2),
    "penalty-descent": dict(algorithm="penalty_gd", kappa=0.2, penalty_canonical=False),
    "step_and_project": dict(algorithm="step_and_project", gamma=1.0, psi=0.2),
    "power_projection": dict(algorithm="power_projection", gamma=0.5),
    "power_projection-default": dict(algorithm="power_projection", gamma=0.5,
                                     schedule=StepSchedule("default")),
}


@pytest.mark.parametrize("case", WORKSPACE_CASES)
@pytest.mark.parametrize("L", [1, 4])
def test_workspace_loop_matches_allocating_loop(case, L):
    kw = {"schedule": StepSchedule("constant", 0.05), **WORKSPACE_CASES[case]}
    cfg = TrainerConfig(d=3, L=L, max_iters=40, record_spectra=True, record_layers=True, **kw)
    trace = run_against_reference(PHI3, cfg)
    assert len(trace.losses) == 41
    # the snapshots are copies, not views of the loop's two buffers
    for m in trace.final_layers:
        assert not np.shares_memory(trace.layers, m)
    np.testing.assert_array_equal(trace.layers[-1], np.stack(trace.final_layers))


@pytest.mark.parametrize("algorithm, extra, eta", DIVERGING)
def test_workspace_loop_diverges_like_allocating_loop(algorithm, extra, eta):
    # eta 1 ends on the loss, eta 1e308 on a non-finite update (or, for the
    # power projection, a non-finite product); either way the last finite
    # iterate survives in the buffer the failed step did not write
    cfg = TrainerConfig(algorithm, 1, 3, StepSchedule("constant", eta), max_iters=50,
                        record_layers=True, **extra)
    trace = run_against_reference(np.array([[3.0]]), cfg)
    assert trace.status == "diverged"
    np.testing.assert_array_equal(trace.layers[-1], np.stack(trace.final_layers))


def test_workspace_loop_diverges_in_the_update_mid_run():
    # finite steps, then one that overflows the layers: the schedule jumps;
    # a step that diverges in the update has its eta recorded
    etas = (0.01,) * 7 + (1e308,)
    for algorithm, extra in (("gd", {}), ("step_and_project", dict(gamma=1.0, psi=0.5))):
        cfg = TrainerConfig(algorithm, 2, 3, StepSchedule("sequence", etas=etas),
                            max_iters=20, record_layers=True, **extra)
        trace = run_against_reference(10.0 * TARGET, cfg)
        assert (trace.status, len(trace.losses), len(trace.etas)) == ("diverged", 8, 8)
        np.testing.assert_array_equal(trace.layers[-1], np.stack(trace.final_layers))


NON_FINITE_CONFIGS = [
    pytest.param(dict(algorithm="step_and_project", gamma=1.0, psi=math.nan), id="psi-nan"),
    pytest.param(dict(epsilon=math.nan), id="epsilon-nan"),
    pytest.param(dict(schedule=StepSchedule("constant", math.inf)), id="eta-inf"),
    pytest.param(dict(schedule=StepSchedule("constant", math.nan)), id="eta-nan"),
    pytest.param(dict(schedule=StepSchedule("sequence", etas=(0.1, math.nan))), id="etas-nan"),
    pytest.param(dict(schedule=StepSchedule("sequence", etas=(math.inf,))), id="etas-inf"),
]


@pytest.mark.parametrize("fields", NON_FINITE_CONFIGS)
def test_non_finite_run_parameters_are_config_errors(fields):
    cfg = TrainerConfig(**{"algorithm": "gd", "d": 2, "L": 2,
                           "schedule": StepSchedule("constant", 0.1), **fields})
    with pytest.raises(ConfigError):
        cfg.validate()
    with pytest.raises(ConfigError):
        RUNNERS[cfg.algorithm](np.eye(2), cfg)


# Python-built configs: the JSON path rejects these types before validation
NON_INTEGER_CONFIGS = [
    pytest.param(dict(max_iters=2.5), id="max_iters-float"),
    pytest.param(dict(L=2.0), id="L-float"),
    pytest.param(dict(d=True), id="d-bool"),
]


@pytest.mark.parametrize("fields", NON_INTEGER_CONFIGS)
def test_non_integer_run_parameters_are_config_errors(fields):
    cfg = TrainerConfig(**{"algorithm": "gd", "d": 2, "L": 2,
                           "schedule": StepSchedule("constant", 1e-3), **fields})
    with pytest.raises(ConfigError, match="must be an integer"):
        run_gd(np.eye(2), cfg)


def test_numpy_integer_run_parameters_pass():
    phi, schedule = np.diag([0.5, 2.0]), StepSchedule("constant", 0.05)
    cfg = TrainerConfig("gd", np.int64(2), np.int64(3), schedule, max_iters=np.int64(5))
    trace = run_gd(phi, cfg)
    assert (trace.status, trace.iterations) == ("budget", 5)
    plain = run_gd(phi, TrainerConfig("gd", 2, 3, schedule, max_iters=5))
    assert_traces_bitwise_equal(trace, plain)


@pytest.mark.parametrize("mode", ["admissible", "default"])
def test_gd_on_a_target_whose_square_overflows_diverges(mode):
    cfg = TrainerConfig("gd", 2, 3, StepSchedule(mode), max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy's overflow in the loss
        trace = run_gd(1e160 * np.eye(2), cfg)
    assert trace.status == "diverged"


def test_step_sizes_past_the_float_range():
    assert step_size_symmetric_target(1e200 * np.eye(2), 2) == 0.0
    # the scale of a tiny target underflows to 0: an infinite step, which
    # diverges; a zero target still has no step
    assert step_size_power_projection(1e-200 * np.eye(2), 3) == math.inf
    cfg = TrainerConfig("power_projection", 2, 3, StepSchedule("default"), gamma=0.5, max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the targets are not 0.5-positive
        assert run_power_projection(1e-200 * np.eye(2), cfg).status == "diverged"
        with pytest.raises(ConfigError, match="nonzero target"):
            run_power_projection(np.zeros((2, 2)), cfg)
    with pytest.raises(ConfigError, match="nonzero target"):
        step_size_power_projection(np.zeros((2, 2)), 3)


# --- the fixed-point exit ----------------------------------------------------


# runs that reach an iterate their step maps to itself bit for bit
STALL_CASES = {
    "ball-criterion-9": (np.diag([-0.8, 1.0, 1.0]), dict(
        algorithm="step_and_project", d=3, L=3, gamma=1.0, psi=0.9,
        schedule=StepSchedule("constant", 0.2), max_iters=80)),
    "gd-spd": (np.diag([0.5, 2.0]), dict(
        algorithm="gd", d=2, L=2, schedule=StepSchedule("constant", 0.1), max_iters=400)),
    "penalty-kappa-one-eta-zero": (np.diag([0.5, 2.0]), dict(
        algorithm="penalty_gd", d=2, L=2, kappa=1.0,
        schedule=StepSchedule("constant", 0.0), max_iters=10)),
    "gd-admissible": (np.array([[1.1]]), dict(
        algorithm="gd", d=1, L=2, schedule=StepSchedule("admissible"), max_iters=120)),
    "gd-default": (np.array([[1.1]]), dict(
        algorithm="gd", d=1, L=2, schedule=StepSchedule("default"), max_iters=120)),
    "power_projection": (np.diag([0.8, 1.5]), dict(
        algorithm="power_projection", d=2, L=2, gamma=0.5,
        schedule=StepSchedule("constant", 0.1), max_iters=250)),
}


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
@pytest.mark.parametrize("case", STALL_CASES)
def test_fixed_point_exit_matches_the_full_run(recorder_pool, exits, case, pooled):
    # the run exits once, and its repeated rows are copies of the exit's
    # row.  Pooled, on 3-row chunks and a 2-thread pool, which the kappa = 1
    # run never starts: it exits at t = 1, before its first chunk fills.
    phi, kw = STALL_CASES[case]
    cfg = TrainerConfig(record_spectra=True, record_layers=True, **kw)
    recorder_pool(2 if pooled else 0)
    trace = run_against_reference(phi, cfg, 3 if pooled else None)
    assert len(exits) == 1, "the run should stop at its fixed point"
    assert trace.status == "budget" and len(trace.losses) == cfg.max_iters + 1
    assert len(trace.etas) == cfg.max_iters
    np.testing.assert_array_equal(trace.layers[-1], np.stack(trace.final_layers))
    assert np.unique(trace.losses[-exits[0] - 1:]).size == 1
    t = cfg.max_iters - exits[0]
    assert (trainers._POOL is not None) == (pooled and t + 1 > 3)


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
def test_fixed_point_exit_on_the_last_step(recorder_pool, exits, pooled):
    # criterion 9's ball run reaches an iterate its step maps to itself bit
    # for bit and stops there; with a budget one step past that iterate it
    # stops there too.  Pooled, on 3-row chunks and a 2-thread pool.
    cfg = TrainerConfig("step_and_project", 3, 3, StepSchedule("constant", 0.2), gamma=1.0,
                        psi=0.9, max_iters=80, record_spectra=True, record_layers=True)
    phi, chunk = np.diag([-0.8, 1.0, 1.0]), 3 if pooled else None
    recorder_pool(2 if pooled else 0)
    run_against_reference(phi, cfg, chunk)
    t = cfg.max_iters - exits.pop()
    trace = run_against_reference(phi, dataclasses.replace(cfg, max_iters=t + 1), chunk)
    assert exits == [1] and trace.losses[-1] == trace.losses[-2]
    assert (trainers._POOL is not None) == pooled


def test_fixed_point_exit_waits_for_the_schedule(exits):
    # with kappa = 1 and eta = 0 every iterate is I.  A sequence that is
    # still to change must not exit, nor may the step onto its last entry
    # while it differs from the step before.
    for etas in ((0.0,) * 5 + (0.05,), (0.0, 0.05)):
        cfg = TrainerConfig("penalty_gd", 2, 2, StepSchedule("sequence", etas=etas),
                            kappa=1.0, max_iters=12, record_spectra=True, record_layers=True)
        trace = run_against_reference(np.diag([0.5, 2.0]), cfg)
        steady = len(etas) - 1
        assert trace.losses[steady + 1] != trace.losses[steady]
        assert all(cfg.max_iters - k > steady for k in exits)
        exits.clear()
