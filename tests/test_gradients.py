"""Exact-gradient verification against an independent finite-difference oracle."""

import math

import numpy as np
import pytest

from pfedmb.errors import ConfigurationError, UsageError
from pfedmb.nn import (
    AlphaParams,
    batch_loss,
    gradient_check,
    init_network,
    loss_and_grads,
    step_alpha,
    step_network,
    uniform_alpha,
)

from conftest import corrupt_kernel


def fd_grad(f, arr, h=1e-5):
    """Central differences of scalar f with respect to every entry of arr."""
    g = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + h
        hi = f()
        arr[idx] = orig - h
        lo = f()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
    return g


def rel_err(a, n):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return np.max(np.abs(a - n) / denom)


def random_problem(seed, dims=(4, 5, 3), branches=3, batch=8, shared=False):
    rng = np.random.default_rng(seed)
    net = init_network(dims, branches, rng.integers(0, 2**32))
    rows = 1 if shared else net.num_layers
    alpha = AlphaParams(rng.normal(size=(rows, branches)), net.num_layers, shared)
    x = rng.normal(size=(batch, dims[0]))
    y = rng.integers(0, dims[-1], size=batch)
    return net, alpha, x, y


def test_uniform_prediction_loss_is_log_c():
    net = init_network([3, 10], num_branches=2, seed=0)
    for layer in net.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    loss, _ = loss_and_grads(net, uniform_alpha(1, 2), (np.ones((4, 3)), [0, 3, 9, 5]), "w")
    assert loss == pytest.approx(math.log(10), abs=1e-12)


def test_single_branch_alpha_gradient_is_zero():
    net, alpha, x, y = random_problem(1, branches=1)
    _, d_logits = loss_and_grads(net, alpha, (x, y), "alpha")
    np.testing.assert_array_equal(d_logits, np.zeros_like(alpha.logits))


@pytest.mark.parametrize("shared", [False, True])
def test_gradients_match_finite_differences(shared):
    net, alpha, x, y = random_problem(2, shared=shared)
    _, (d_weights, d_biases) = loss_and_grads(net, alpha, (x, y), "w")
    _, d_logits = loss_and_grads(net, alpha, (x, y), "alpha")

    for l, layer in enumerate(net.layers):
        num_w = fd_grad(lambda: batch_loss(net, alpha, x, y), layer.weights)
        assert rel_err(d_weights[l], num_w) < 1e-4
        num_b = fd_grad(lambda: batch_loss(net, alpha, x, y), layer.biases)
        assert rel_err(d_biases[l], num_b) < 1e-4

    num_a = fd_grad(lambda: batch_loss(net, alpha, x, y), alpha.logits)
    assert rel_err(d_logits, num_a) < 1e-4


def test_wrt_selects_parameter_group():
    net, alpha, x, y = random_problem(3)
    # "w" gives one (weights, biases) gradient pair per layer, shaped like the branches
    _, (d_weights, d_biases) = loss_and_grads(net, alpha, (x, y), wrt="w")
    assert [d.shape for d in d_weights] == [layer.weights.shape for layer in net.layers]
    assert [d.shape for d in d_biases] == [layer.biases.shape for layer in net.layers]
    assert any(np.any(d != 0.0) for d in d_weights)
    # "alpha" gives the logit gradient alone, shaped like the logits
    _, d_logits = loss_and_grads(net, alpha, (x, y), wrt="alpha")
    assert isinstance(d_logits, np.ndarray) and d_logits.shape == alpha.logits.shape
    assert np.any(d_logits != 0.0)


def test_loss_and_grads_input_validation():
    net, alpha, x, y = random_problem(4)
    with pytest.raises(UsageError):
        loss_and_grads(net, alpha, (np.zeros((0, 4)), np.zeros(0, dtype=int)), "w")
    with pytest.raises(UsageError):
        loss_and_grads(net, alpha, (x, np.full_like(y, 99)), "alpha")
    # each call differentiates one group: there is no "both"
    for wrt in ("nonsense", "both"):
        with pytest.raises(UsageError, match=f"'w' or 'alpha'; got '{wrt}'"):
            loss_and_grads(net, alpha, (x, y), wrt=wrt)


def test_non_integer_labels_are_rejected_not_truncated():
    net, alpha, x, y = random_problem(4)
    x = x[:2]
    for labels in ([0.5, 1.7], [np.nan, 1.0], ["0", "1"]):
        with pytest.raises(UsageError, match="labels must be integers"):
            loss_and_grads(net, alpha, (x, labels), "w")
    with pytest.raises(UsageError, match="labels must be integers"):
        batch_loss(net, alpha, x, [0.9, 1.2])
    # integral floats are still labels
    assert batch_loss(net, alpha, x, [1.0, 0.0]) == batch_loss(net, alpha, x, [1, 0])


def test_missing_labels_are_rejected():
    net, alpha, x, _ = random_problem(4)
    with pytest.raises(UsageError, match="labels shape"):
        batch_loss(net, alpha, x, None)
    with pytest.raises(UsageError, match="labels shape"):
        loss_and_grads(net, alpha, (x, None), "alpha")


def test_vertex_alpha_trains_only_the_active_branch():
    # with the mixing at a (numerical) vertex, other branches get zero gradient
    net, _, x, y = random_problem(10, branches=3)
    logits = np.full((net.num_layers, 3), -1e9)
    logits[:, 1] = 0.0
    vertex = AlphaParams(logits, net.num_layers)
    _, (d_weights, d_biases) = loss_and_grads(net, vertex, (x, y), wrt="w")
    for l in range(net.num_layers):
        for b in (0, 2):
            assert np.all(d_weights[l][b] == 0.0)
            assert np.all(d_biases[l][b] == 0.0)
        assert np.any(d_weights[l][1] != 0.0)


def test_step_helpers_keep_their_input_unless_they_own_it():
    """own False: the input is as it was and the result lives in the gradient arrays;
    own True: the input itself comes back, stepped in place."""
    net, alpha, x, y = random_problem(5)
    w_before = [layer.weights.copy() for layer in net.layers]
    logits_before = alpha.logits.copy()
    net2 = step_network(net, loss_and_grads(net, alpha, (x, y), "w")[1], 0.1, False)
    alpha2 = step_alpha(alpha, loss_and_grads(net, alpha, (x, y), "alpha")[1], 0.1, False)
    for layer, orig in zip(net.layers, w_before):
        np.testing.assert_array_equal(layer.weights, orig)
    np.testing.assert_array_equal(alpha.logits, logits_before)
    assert any(np.any(a.weights != b.weights) for a, b in zip(net.layers, net2.layers))
    assert np.any(alpha2.logits != alpha.logits)

    w_before = [layer.weights.copy() for layer in net2.layers]
    logits_before = alpha2.logits.copy()
    assert step_network(net2, loss_and_grads(net2, alpha2, (x, y), "w")[1], 0.1, True) is net2
    assert step_alpha(alpha2, loss_and_grads(net2, alpha2, (x, y), "alpha")[1], 0.1,
                      True) is alpha2
    assert any(np.any(layer.weights != orig) for layer, orig in zip(net2.layers, w_before))
    assert np.any(alpha2.logits != logits_before)


def test_alpha_stays_on_simplex_under_many_steps():
    net, alpha, x, y = random_problem(6)
    for _ in range(200):
        _, g = loss_and_grads(net, alpha, (x, y), wrt="alpha")
        alpha = step_alpha(alpha, g, 0.5, False)
        v = alpha.values()
        assert v.min() >= 0.0
        np.testing.assert_allclose(v.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_gradient_check_passes_on_zero_net():
    net = init_network([3, 2], num_branches=2, seed=0)
    for layer in net.layers:
        layer.weights[:] = 0.0
    # h=1e-3 keeps the f64 rounding noise of the difference quotient well below
    # the 1e-8 denominator floor; both gradients are ~0 here
    report = gradient_check(
        net, uniform_alpha(1, 2), (np.ones((4, 3)), [0, 1, 0, 1]), h=1e-3
    )
    assert report.w_error < 1e-4
    assert report.alpha_error < 1e-4
    assert report.passed


def test_gradient_check_random_net_meets_tolerance():
    net, alpha, x, y = random_problem(7)
    report = gradient_check(net, alpha, (x, y), h=1e-5)
    assert report.w_error < 1e-4
    assert report.alpha_error < 1e-4
    assert report.passed


@pytest.mark.parametrize("group", ["w", "alpha"])
def test_gradient_check_flags_corrupted_gradient(monkeypatch, group):
    """gradient_check checks the kernel itself, so a wrong kernel fails it."""
    corrupt_kernel(monkeypatch, group)
    net, alpha, x, y = random_problem(8)
    report = gradient_check(net, alpha, (x, y))
    errors = {"w": report.w_error, "alpha": report.alpha_error}
    assert errors.pop(group) >= 0.1
    assert errors.popitem()[1] < 1e-4  # the other group is untouched
    assert not report.passed


def test_gradient_check_rejects_bad_h():
    net, alpha, x, y = random_problem(9)
    with pytest.raises(ConfigurationError):
        gradient_check(net, alpha, (x, y), h=0.0)
    with pytest.raises(ConfigurationError):
        gradient_check(net, alpha, (x, y), h=0.5)
