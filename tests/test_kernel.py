"""The per-step kernel, pinned bit for bit against the same math written inline.

The oracle below uses numpy only, never pfedmb.nn: a change to the kernel that
moves a single bit of a loss, a gradient or a stepped parameter fails here,
not only in the golden result hashes.  A call over S clients' stacked mixing
logits is pinned against S single calls the same way.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfedmb import nn
from pfedmb.errors import NumericError, UsageError

# (branches, layer dims, shared mixing row, batch rows): the three bench shapes
SHAPES = [
    (5, (20, 32, 10), True, 40),
    (4, (64, 128, 20), False, 64),
    (8, (32, 64, 64, 64, 10), False, 512),
]
SHAPE_IDS = ["paired", "dirichlet", "deep"]


def make_problem(branches, dims, shared, rows, seed=0):
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-1, 1, (branches, o, i)) / np.sqrt(i) for i, o in zip(dims, dims[1:])]
    biases = [rng.normal(0.0, 0.1, (branches, o)) for o in dims[1:]]
    logits = rng.normal(size=(1 if shared else len(weights), branches))
    x = rng.normal(size=(rows, dims[0]))
    y = rng.integers(0, dims[-1], size=rows)
    return weights, biases, logits, x, y


def oracle(weights, biases, logits, shared, x, y):
    """Logits, loss, weight, bias and logit gradients, inline: every group computed."""
    num_layers = len(weights)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    v = e / e.sum(axis=1, keepdims=True)
    mix = np.repeat(v, num_layers, axis=0) if shared and num_layers > 1 else v

    acts, preacts, combined = [x], [], []
    for l in range(num_layers):
        w = np.einsum("b,boi->oi", mix[l], weights[l])
        z = acts[-1] @ w.T + mix[l] @ biases[l]
        combined.append(w)
        preacts.append(z)
        acts.append(np.maximum(z, 0.0) if l < num_layers - 1 else z)

    n = x.shape[0]
    shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), y].mean())

    dz = np.exp(logp)
    dz[np.arange(n), y] -= 1.0
    dz /= n
    d_w, d_b = [None] * num_layers, [None] * num_layers
    d_mix = np.zeros((num_layers, v.shape[1]))
    for l in reversed(range(num_layers)):
        dw_c = dz.T @ acts[l]
        db_c = dz.sum(axis=0)
        d_w[l] = mix[l][:, None, None] * dw_c[None, :, :]
        d_b[l] = mix[l][:, None] * db_c[None, :]
        d_mix[l] = np.einsum("oi,boi->b", dw_c, weights[l]) + biases[l] @ db_c
        if l > 0:
            dz = (dz @ combined[l]) * (preacts[l - 1] > 0.0)
    if shared:
        d_mix = d_mix.sum(axis=0, keepdims=True)
    d_logits = v * (d_mix - (v * d_mix).sum(axis=1, keepdims=True))
    return acts[-1], loss, d_w, d_b, d_logits


def as_nn(weights, biases, logits, shared):
    net = nn.Network([nn.MultiBranchDense(w, b) for w, b in zip(weights, biases)])
    return net, nn.AlphaParams(logits, len(weights), shared)


@pytest.mark.parametrize("wrt", ["w", "alpha"])
@pytest.mark.parametrize("branches,dims,shared,rows", SHAPES, ids=SHAPE_IDS)
def test_loss_and_grads_equal_the_inline_oracle_bit_for_bit(branches, dims, shared, rows, wrt):
    weights, biases, logits, x, y = make_problem(branches, dims, shared, rows)
    out, loss, d_w, d_b, d_logits = oracle(weights, biases, logits, shared, x, y)

    net, alpha = as_nn(weights, biases, logits, shared)
    got_loss, grads = nn.loss_and_grads(net, alpha, (x, y), wrt=wrt)
    assert got_loss == loss
    # the requested group equals the oracle's
    if wrt == "w":
        got_w, got_b = grads
        assert len(got_w) == len(got_b) == len(weights)
        for l in range(len(weights)):
            np.testing.assert_array_equal(got_w[l], d_w[l])
            np.testing.assert_array_equal(got_b[l], d_b[l])
    else:
        np.testing.assert_array_equal(grads, d_logits)
    # the same forward pass and loss serve forward and batch_loss
    np.testing.assert_array_equal(nn.forward(net, alpha, x), out)
    assert nn.batch_loss(net, alpha, x, y) == loss


@pytest.mark.parametrize("branches,dims,shared,rows", SHAPES, ids=SHAPE_IDS)
def test_step_network_equals_the_inline_update_bit_for_bit(branches, dims, shared, rows):
    weights, biases, logits, x, y = make_problem(branches, dims, shared, rows, seed=1)
    _, _, d_w, d_b, _ = oracle(weights, biases, logits, shared, x, y)
    net, alpha = as_nn(weights, biases, logits, shared)
    _, grads = nn.loss_and_grads(net, alpha, (x, y), wrt="w")
    lr = 0.05
    stepped = nn.step_network(net, grads, lr)
    for l, layer in enumerate(stepped.layers):
        # W - lr * (alpha_b * dW_combined), never (lr * alpha_b) * dW_combined
        np.testing.assert_array_equal(layer.weights, weights[l] - lr * d_w[l])
        np.testing.assert_array_equal(layer.biases, biases[l] - lr * d_b[l])
        assert layer.weights.flags.c_contiguous and layer.biases.flags.c_contiguous


@pytest.mark.parametrize("wrt", ["w", "alpha"])
@pytest.mark.parametrize("shared", [True, False])
def test_softmax_runs_once_per_loss_and_grads_call(monkeypatch, wrt, shared):
    weights, biases, logits, x, y = make_problem(3, (4, 6, 5, 3), shared, 8)
    net, alpha = as_nn(weights, biases, logits, shared)
    calls = []
    softmax = nn.softmax

    def counting(z):
        calls.append(z)
        return softmax(z)

    monkeypatch.setattr(nn, "softmax", counting)
    for expected in (1, 2):
        nn.loss_and_grads(net, alpha, (x, y), wrt=wrt)
        assert len(calls) == expected


def test_step_network_output_shares_no_memory_with_its_inputs():
    weights, biases, logits, x, y = make_problem(*SHAPES[0])
    net, alpha = as_nn(weights, biases, logits, True)
    _, (d_weights, d_biases) = nn.loss_and_grads(net, alpha, (x, y), wrt="w")
    stepped = nn.step_network(net, (d_weights, d_biases), 0.05)
    for l, layer in enumerate(stepped.layers):
        inputs = (net.layers[l].weights, net.layers[l].biases, d_weights[l], d_biases[l])
        for out in (layer.weights, layer.biases):
            assert not any(np.shares_memory(out, arr) for arr in inputs)
    assert not np.shares_memory(stepped.layers[0].weights, stepped.layers[0].biases)

    _, d_logits = nn.loss_and_grads(net, alpha, (x, y), wrt="alpha")
    logits = nn.step_alpha(alpha, d_logits, 0.05).logits
    assert logits.dtype == np.float64 and logits.flags.c_contiguous
    assert not any(np.shares_memory(logits, arr) for arr in (alpha.logits, d_logits))


def test_the_mixing_phase_allocates_no_branch_gradients():
    branches, dims, shared, _ = SHAPES[2]
    weights, biases, logits, x, y = make_problem(branches, dims, shared, 40)
    net, alpha = as_nn(weights, biases, logits, shared)
    branch_bytes = sum(w.nbytes for w in weights)
    assert branch_bytes == 696_320
    tracemalloc.start()
    try:
        nn.loss_and_grads(net, alpha, (x, y), wrt="alpha")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a B-fold weight gradient alone would be branch_bytes
    assert peak < branch_bytes / 2


def test_an_overflowing_loss_raises_in_batch_loss_as_in_loss_and_grads():
    # finite logits (1e308, -1e308): their spread overflows in the log-softmax
    net = nn.Network([nn.MultiBranchDense(np.zeros((1, 2, 1)), [[1e308, -1e308]])])
    alpha = nn.uniform_alpha(1, 1)
    x, y = np.ones((1, 1)), np.array([1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in (lambda: nn.batch_loss(net, alpha, x, y),
                     lambda: nn.loss_and_grads(net, alpha, (x, y), "w")):
            with pytest.raises(NumericError, match="non-finite loss"):
                loss()


@st.composite
def stacked_problems(draw):
    """A network, S clients' mixing logits and S batches of one length."""
    shared = draw(st.booleans())
    branches = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    clients, rows = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    weights, biases, _, _, _ = make_problem(branches, dims, shared, rows,
                                            seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 30.0])),
                        size=(clients, 1 if shared else len(weights), branches))
    x = rng.normal(size=(clients * rows, dims[0]))
    y = rng.integers(0, dims[-1], size=clients * rows)
    return weights, biases, logits, shared, x, y


@given(stacked_problems())
def test_a_stacked_mixing_call_equals_one_call_per_client_bit_for_bit(problem):
    weights, biases, logits, shared, x, y = problem
    clients = logits.shape[0]
    net, stacked = as_nn(weights, biases, logits, shared)
    losses, d_logits = nn.loss_and_grads(net, stacked, (x, y), "alpha")
    stepped = nn.step_alpha(stacked, d_logits, 0.7).logits
    assert losses.shape == (clients,) and d_logits.shape == logits.shape
    for k, (bx, by) in enumerate(zip(np.split(x, clients), np.split(y, clients))):
        alpha = nn.AlphaParams(logits[k], len(weights), shared)
        loss, d = nn.loss_and_grads(net, alpha, (bx, by), "alpha")
        assert losses[k] == loss
        np.testing.assert_array_equal(d_logits[k], d)
        np.testing.assert_array_equal(stepped[k], nn.step_alpha(alpha, d, 0.7).logits)


def test_only_the_mixing_gradient_takes_stacked_logits():
    weights, biases, _, x, y = make_problem(3, (4, 5, 3), False, 6)
    net, stacked = as_nn(weights, biases, np.zeros((3, 2, 3)), False)
    with pytest.raises(UsageError, match="5 rows do not split into 3 equal client batches"):
        nn.loss_and_grads(net, stacked, (x[:5], y[:5]), "alpha")
    for refused in (lambda: nn.loss_and_grads(net, stacked, (x, y), "w"),
                    lambda: nn.forward(net, stacked, x),
                    lambda: nn.batch_loss(net, stacked, x, y)):
        with pytest.raises(UsageError, match="client axis"):
            refused()
