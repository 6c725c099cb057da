"""Multi-branch layer algebra: combination, forward equivalence, simplex handling."""

import numpy as np
import pytest

from pfedmb.errors import ConfigurationError, NumericError
from pfedmb.nn import (
    AlphaParams,
    MultiBranchDense,
    Network,
    combine_branches,
    forward,
    init_network,
    softmax,
    uniform_alpha,
)


def random_net(rng, dims=(4, 5, 3), branches=3):
    return init_network(dims, branches, rng.integers(0, 2**32))


def branchwise_forward(net, alpha_values, x):
    """Independent evaluation order: weight the per-branch outputs, not the weights."""
    act = x
    for l, layer in enumerate(net.layers):
        z = np.zeros((x.shape[0], layer.out_dim))
        for b in range(layer.num_branches):
            z += alpha_values[l, b] * (act @ layer.weights[b].T + layer.biases[b])
        act = np.maximum(z, 0.0) if l < net.num_layers - 1 else z
    return act


def test_combine_vertex_returns_branch_exactly():
    rng = np.random.default_rng(0)
    layer = MultiBranchDense(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3)))
    w, b = combine_branches(layer, [1.0, 0.0])
    np.testing.assert_array_equal(w, layer.weights[0])
    np.testing.assert_array_equal(b, layer.biases[0])


def test_combine_identical_branches_is_identity():
    m = np.arange(6.0).reshape(2, 3)
    bias = np.array([1.0, -2.0])
    layer = MultiBranchDense(np.stack([m, m, m]), np.stack([bias, bias, bias]))
    w, b = combine_branches(layer, [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(w, m, rtol=0, atol=1e-15)
    np.testing.assert_allclose(b, bias, rtol=0, atol=1e-15)


def test_combine_two_branch_hand_value():
    # 0.25 * 4 + 0.75 * 0 = 1.0
    layer = MultiBranchDense(
        np.array([[[4.0]], [[0.0]]]), np.zeros((2, 1))
    )
    w, _ = combine_branches(layer, [0.25, 0.75])
    np.testing.assert_array_equal(w, [[1.0]])


def test_combine_rejects_wrong_length_and_off_simplex():
    layer = MultiBranchDense(np.zeros((2, 1, 1)), np.zeros((2, 1)))
    with pytest.raises(ConfigurationError):
        combine_branches(layer, [1.0, 0.0, 0.0])
    with pytest.raises(ConfigurationError):
        combine_branches(layer, [0.7, 0.7])
    with pytest.raises(ConfigurationError):
        combine_branches(layer, [1.5, -0.5])
    for nan_mixing in ([np.nan, np.nan], [np.nan, 1.0]):
        with pytest.raises(ConfigurationError):
            combine_branches(layer, nan_mixing)


def test_identity_network_forward():
    layer = MultiBranchDense(np.eye(3)[None, :, :], np.zeros((1, 3)))
    net = Network([layer])
    x = np.random.default_rng(1).normal(size=(5, 3))
    logits, _ = forward(net, uniform_alpha(1, 1), x)
    np.testing.assert_array_equal(logits, x)


def test_forward_at_vertex_matches_single_branch_network():
    rng = np.random.default_rng(2)
    net = random_net(rng)
    x = rng.normal(size=(6, 4))
    for b in range(net.num_branches):
        # logits strongly favoring branch b: softmax -> numerically exact vertex
        logits = np.full((net.num_layers, net.num_branches), -1e9)
        logits[:, b] = 0.0
        vertex = AlphaParams(logits, net.num_layers)
        single = Network(
            [
                MultiBranchDense(layer.weights[b][None], layer.biases[b][None])
                for layer in net.layers
            ]
        )
        got, _ = forward(net, vertex, x)
        want, _ = forward(single, uniform_alpha(net.num_layers, 1), x)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_superposition_equivalence_on_random_nets():
    # combined-weight path vs per-branch-sum path, 100 random instances
    rng = np.random.default_rng(3)
    for _ in range(100):
        dims = tuple(rng.integers(2, 7, size=rng.integers(2, 4)))
        net = random_net(rng, dims=dims, branches=int(rng.integers(1, 5)))
        alpha = AlphaParams(
            rng.normal(size=(net.num_layers, net.num_branches)), net.num_layers
        )
        x = rng.normal(size=(int(rng.integers(1, 9)), net.in_dim))
        got, _ = forward(net, alpha, x)
        want = branchwise_forward(net, alpha.values(), x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_rejects_dim_mismatch():
    net = random_net(np.random.default_rng(4))
    with pytest.raises(ConfigurationError):
        forward(net, uniform_alpha(net.num_layers, net.num_branches), np.zeros((2, 9)))
    with pytest.raises(ConfigurationError):
        forward(net, uniform_alpha(net.num_layers + 1, net.num_branches), np.zeros((2, 4)))


def test_forward_flags_nonfinite_with_layer_index():
    layer = MultiBranchDense(np.full((1, 1, 1), np.inf), np.zeros((1, 1)))
    net = Network([layer])
    with pytest.raises(NumericError, match="layer 0"):
        forward(net, uniform_alpha(1, 1), np.ones((1, 1)))


def test_alpha_values_are_simplex_rows():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = AlphaParams(rng.normal(scale=8, size=(3, 4)), 3)
        v = a.values()
        assert v.min() >= 0.0
        np.testing.assert_allclose(v.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_shared_alpha_broadcasts_one_row():
    a = AlphaParams(np.array([[0.3, -1.2, 2.0]]), num_layers=4, shared=True)
    v = a.values()
    assert v.shape == (4, 3)
    for row in v[1:]:
        np.testing.assert_array_equal(row, v[0])


def test_alpha_params_shape_validation():
    with pytest.raises(ConfigurationError):
        AlphaParams(np.zeros((2, 3)), num_layers=3)
    with pytest.raises(ConfigurationError):
        AlphaParams(np.zeros((2, 3)), num_layers=2, shared=True)


def test_network_dim_chain_validation():
    l1 = MultiBranchDense(np.zeros((2, 5, 4)), np.zeros((2, 5)))
    l2 = MultiBranchDense(np.zeros((2, 3, 6)), np.zeros((2, 3)))
    with pytest.raises(ConfigurationError):
        Network([l1, l2])
    l3 = MultiBranchDense(np.zeros((3, 3, 5)), np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):
        Network([l1, l3])


def test_softmax_matches_direct_computation():
    z = np.array([[0.0, 0.0], [1.0, 3.0]])
    got = softmax(z)
    np.testing.assert_allclose(got[0], [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(
        got[1], np.exp([1.0, 3.0]) / np.exp([1.0, 3.0]).sum(), rtol=1e-12
    )
