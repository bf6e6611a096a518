"""Checker behavior, including mutation tests proving they catch breakage."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import deeplin.verify as verify
from deeplin import matcore, network
from deeplin.network import DeepLinearNet, full_gradient, full_hessian
from deeplin.trainers import StepSchedule, TrainerConfig, run_gd, run_power_projection, run_step_and_project
from deeplin.verify import (
    CheckReport,
    check_commuting_normal,
    check_gradient_lower_bound,
    check_hessian_upper_bound,
    eigen_recurrence_check,
    fd_gradient_check,
    fd_hessian_check,
    simulate_scalar_recurrence,
    trace_recurrence_check,
)


def identity_net(d, L):
    return DeepLinearNet(np.tile(np.eye(d), (L, 1, 1)))


def small_net(seed=51, d=2, L=3):
    rng = np.random.default_rng(seed)
    net = DeepLinearNet(tuple(rng.uniform(-1, 1, (d, d)) for _ in range(L)))
    phi = rng.uniform(-1, 1, (d, d))
    return net, phi


def test_fd_gradient_clean_pass():
    net, phi = small_net()
    report = fd_gradient_check(net, phi)
    assert report.passed and report.violations == 0
    assert report.worst is None


def test_fd_gradient_catches_corruption(monkeypatch):
    net, phi = small_net()
    real = full_gradient(net, phi)

    def corrupted(n, p):
        bad = real.copy()
        bad[0, 0, 0] += 1e-3
        return bad

    monkeypatch.setattr(verify, "full_gradient", corrupted)
    report = fd_gradient_check(net, phi)
    assert not report.passed
    assert report.worst is not None and report.worst["entry"] == 0


def test_fd_hessian_clean_pass():
    net, phi = small_net(d=2, L=2)
    report = fd_hessian_check(net, phi)
    assert report.passed
    assert json.dumps(report.to_dict())


def test_fd_hessian_catches_corruption(monkeypatch):
    net, phi = small_net(d=2, L=2)
    real = full_hessian(net, phi)

    def corrupted(n, p):
        bad = real.copy()
        bad[1, 2] += 5e-3
        return bad

    monkeypatch.setattr(verify, "full_hessian", corrupted)
    report = fd_hessian_check(net, phi)
    assert not report.passed
    assert report.worst["entry"] in ([1, 2], [2, 1])


def test_fd_step_validation(monkeypatch):
    net, phi = small_net()
    with pytest.raises(ValueError):
        fd_gradient_check(net, phi, h=1.0)
    with pytest.raises(ValueError):
        fd_hessian_check(net, phi, h=1e-9)
    # a bad target is rejected before the first loss evaluation
    def unreachable(*args):
        raise AssertionError("the finite differences ran")

    monkeypatch.setattr(verify, "_loss_flat", unreachable)
    for check in (fd_gradient_check, fd_hessian_check):
        for target in (np.eye(3), np.eye(1)):
            with pytest.raises(ValueError, match="target dimension does not match"):
                check(net, target)
        with pytest.raises(ValueError, match="target has non-finite entries"):
            check(net, np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_gradient_lower_bound_tight_at_identity():
    phi = np.diag([2.0, 0.5])
    net = identity_net(2, 3)
    report = check_gradient_lower_bound(net, phi)
    assert report.passed


def test_gradient_lower_bound_clamps_above_unit_singular_values():
    net = DeepLinearNet((1.5 * np.eye(2), 1.2 * np.eye(2)))
    report = check_gradient_lower_bound(net, np.diag([3.0, 1.0]))
    assert report.passed


def test_gradient_lower_bound_skips_vacuous_margin():
    net = DeepLinearNet((np.zeros((2, 2)), np.eye(2)))
    report = check_gradient_lower_bound(net, np.eye(2))
    assert report.status == "skipped"


def test_hessian_upper_bound_identity():
    report = check_hessian_upper_bound(identity_net(2, 3), 0.5 * np.eye(2))
    assert report.passed


def test_hessian_upper_bound_skips_oversized_target():
    report = check_hessian_upper_bound(identity_net(2, 2), 50.0 * np.eye(2))
    assert report.status == "skipped"


def test_hessian_upper_bound_skips_bound_beyond_float_range():
    # (1+z)^L = 300^64 is finite, the bound's 300^128 is not
    net = DeepLinearNet(np.full((64, 1, 1), 300.0))
    report = check_hessian_upper_bound(net, np.array([[0.5]]))
    assert report.status == "skipped"
    assert "not finite" in report.note


def test_fd_hessian_skips_oversized_network():
    # 17 layers of side 16 give a 4352-wide second-derivative matrix
    report = fd_hessian_check(identity_net(16, 17), 0.5 * np.eye(16))
    assert report.status == "skipped"
    assert report.note == "second-derivative side 4352 exceeds the bound 4096"


def test_hessian_upper_bound_checks_oversized_network():
    # the bound check never forms the 4352-wide matrix.  At identity layers
    # with target c I every block has X = Y = M = I and Q = (1 - c) I, so
    # ||H||^2 = L d^2 + L (L - 1) (d^2 + d^2 (1 - c)^2 + 2 d (1 - c)).
    d, L, c = 16, 17, 0.5
    report = check_hessian_upper_bound(identity_net(d, L), c * np.eye(d))
    assert report.status == "pass"
    hand = math.sqrt(L * d * d + L * (L - 1) * (d * d * (1 + (1 - c) ** 2) + 2 * d * (1 - c)))
    assert report.note.startswith(f"lhs {hand:.6e} ")


def test_hessian_upper_bound_largest_network_in_bounded_memory():
    # d=16, L=64 is 16384 wide (2 GiB assembled); the assembled matrix at
    # the 4096 cap alone takes 128 MiB
    rng = np.random.default_rng(57)
    net = DeepLinearNet(np.eye(16) + 0.01 * rng.standard_normal((64, 16, 16)))
    tracemalloc.start()
    try:
        report = check_hessian_upper_bound(net, 0.5 * np.eye(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "pass"
    assert peak <= 4 * 2**20


def test_bound_checks_of_one_net_form_its_products_and_singular_values_once(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(a):
            calls.append((fn.__name__, np.ndim(a)))
            return fn(a)
        return wrapped

    monkeypatch.setattr(network, "prefix_suffix_products", counting(network.prefix_suffix_products))
    for module in (network, matcore):
        monkeypatch.setattr(module, "singular_values", counting(module.singular_values))
    rng = np.random.default_rng(58)
    net = DeepLinearNet(np.eye(3) + 0.05 * rng.standard_normal((6, 3, 3)))
    phi = 0.5 * np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    reports = (check_gradient_lower_bound(net, phi), check_hessian_upper_bound(net, phi))
    assert [r.status for r in reports] == ["pass", "pass"]
    assert calls.count(("prefix_suffix_products", 3)) == 1
    # the target's operator norm takes one more call, on a single matrix
    assert calls.count(("singular_values", 3)) == 1
    assert len(calls) == 3


def spd_trace(max_iters=40, **kw):
    phi = np.diag([2.0, 0.5])
    cfg = TrainerConfig(
        "gd", 2, 3, StepSchedule("constant", 0.05), max_iters=max_iters,
        record_spectra=True, record_layers=True, **kw
    )
    return run_gd(phi, cfg), phi


def test_commuting_normal_pass_and_requirements():
    trace, phi = spd_trace()
    assert check_commuting_normal(trace, phi).passed
    nonsymmetric = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert check_commuting_normal(trace, nonsymmetric).status == "skipped"
    bare_cfg = TrainerConfig("gd", 2, 3, StepSchedule("constant", 0.05), max_iters=3)
    bare = run_gd(phi, bare_cfg)
    assert check_commuting_normal(bare, phi).status == "skipped"


def test_commuting_normal_catches_doctored_layers():
    trace, phi = spd_trace()
    bad_layers = (
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.eye(2),
        np.eye(2),
    )
    trace.layers[2] = bad_layers
    report = check_commuting_normal(trace, phi)
    assert report.violations >= 1
    assert not report.passed


def test_scalar_recurrence_frozen_sequence():
    seq = simulate_scalar_recurrence(2.0, 2, [0.1], 2)
    np.testing.assert_allclose(seq, [1.0, 1.1, 1.1869], atol=1e-15)


def test_eigen_recurrence_pass_and_requirements():
    trace, phi = spd_trace()
    assert eigen_recurrence_check(trace, phi).passed
    nonsymmetric = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert eigen_recurrence_check(trace, nonsymmetric).status == "skipped"
    bare_cfg = TrainerConfig("gd", 2, 3, StepSchedule("constant", 0.05), max_iters=3)
    bare = run_gd(phi, bare_cfg)
    assert eigen_recurrence_check(bare, phi).status == "skipped"


def test_eigen_recurrence_catches_doctored_spectrum():
    trace, phi = spd_trace()
    trace.eigenvalues[3] += 1e-6
    report = eigen_recurrence_check(trace, phi)
    assert report.violations >= 1


def scalar_gd_trace(eta=0.01, iters=20):
    phi = np.array([[2.0]])
    cfg = TrainerConfig("gd", 1, 2, StepSchedule("constant", eta), max_iters=iters)
    return run_gd(phi, cfg), phi


def test_trace_recurrence_gd_pass():
    trace, phi = scalar_gd_trace()
    report = trace_recurrence_check(trace, phi)
    assert report.passed
    assert report.instances == trace.iterations


def test_trace_recurrence_gd_catches_doctored_loss():
    trace, phi = scalar_gd_trace()
    trace.losses[1] *= 1.2
    report = trace_recurrence_check(trace, phi)
    assert report.violations >= 1
    assert report.worst["loss_excess"] > 0.0


def test_trace_recurrence_gd_catches_doctored_radius():
    trace, phi = scalar_gd_trace()
    trace.radii[2] = 5.0
    report = trace_recurrence_check(trace, phi)
    assert report.violations >= 1


def power_trace():
    phi = 2.0 * np.eye(2)
    cfg = TrainerConfig(
        "power_projection", 2, 2, StepSchedule("default"),
        gamma=0.5, max_iters=30,
    )
    return run_power_projection(phi, cfg), phi


def test_trace_recurrence_power_pass():
    trace, phi = power_trace()
    report = trace_recurrence_check(trace, phi)
    assert report.passed


def test_trace_recurrence_power_catches_floor_breach():
    trace, phi = power_trace()
    trace.min_svs[4] = 0.1
    report = trace_recurrence_check(trace, phi)
    assert report.violations >= 1
    assert report.worst["min_sv_floor"] > 0.0


def test_trace_recurrence_power_catches_norm_cap_breach():
    trace, phi = power_trace()
    trace.u_stats[5] = 10.0
    report = trace_recurrence_check(trace, phi)
    assert report.violations >= 1


def test_trace_recurrence_witness_is_first_of_equal_excesses():
    trace, phi = power_trace()
    trace.min_svs[[3, 6]] = 0.1
    report = trace_recurrence_check(trace, phi)
    assert report.violations == 2
    assert report.worst["t"] == 3


def test_trace_recurrence_skips_unsupported_algorithm():
    phi = np.diag([2.0, 0.5])
    cfg = TrainerConfig(
        "step_and_project", 2, 2, StepSchedule("constant", 0.05),
        gamma=1.0, psi=0.5, max_iters=5,
    )
    trace = run_step_and_project(phi, cfg)
    report = trace_recurrence_check(trace, phi)
    assert report.status == "skipped"


def test_check_report_serializes():
    report = CheckReport("demo", 3, 1, {"t": 2, "excess": 0.5}, "fail", "note")
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["name"] == "demo"
    assert blob["violations"] == 1
    assert not report.passed
