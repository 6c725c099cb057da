"""The per-step kernel, pinned bit for bit against the same math written inline.

The oracle below uses numpy only, never pfedmb.nn: a change to the kernel that
moves a single bit of a loss, a gradient or a stepped parameter fails here,
not only in the golden result hashes.  A call over S clients' stacked mixing
logits, or a loss over S clients' batches, is pinned against S single calls the
same way.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfedmb import nn
from pfedmb.errors import ConfigurationError, NumericError, UsageError

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
    stepped = nn.step_network(net, grads, lr, False)
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


def test_a_step_that_does_not_own_its_input_writes_into_the_gradients():
    """own False: the stepped parameters share no memory with the input, and each is the
    gradient array it consumed."""
    weights, biases, logits, x, y = make_problem(*SHAPES[0])
    net, alpha = as_nn(weights, biases, logits, True)
    _, (d_weights, d_biases) = nn.loss_and_grads(net, alpha, (x, y), wrt="w")
    stepped = nn.step_network(net, (d_weights, d_biases), 0.05, False)
    for l, layer in enumerate(stepped.layers):
        assert layer.weights is d_weights[l] and layer.biases is d_biases[l]
        for out in (layer.weights, layer.biases):
            for arr in (net.layers[l].weights, net.layers[l].biases):
                assert not np.shares_memory(out, arr)
    assert not np.shares_memory(stepped.layers[0].weights, stepped.layers[0].biases)

    _, d_logits = nn.loss_and_grads(net, alpha, (x, y), wrt="alpha")
    logits = nn.step_alpha(alpha, d_logits, 0.05, False).logits
    assert logits is d_logits and not np.shares_memory(logits, alpha.logits)
    assert logits.dtype == np.float64 and logits.flags.c_contiguous


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
    assert losses.shape == (clients,) and d_logits.shape == logits.shape
    singles = []
    for k, (bx, by) in enumerate(zip(np.split(x, clients), np.split(y, clients))):
        alpha = nn.AlphaParams(logits[k], len(weights), shared)
        loss, d = nn.loss_and_grads(net, alpha, (bx, by), "alpha")
        assert losses[k] == loss
        np.testing.assert_array_equal(d_logits[k], d)  # before the steps consume them
        singles.append(nn.step_alpha(alpha, d, 0.7, False).logits)
    stepped = nn.step_alpha(stacked, d_logits, 0.7, False).logits
    for k, single in enumerate(singles):
        np.testing.assert_array_equal(stepped[k], single)


@given(stacked_problems())
def test_a_stacked_weight_call_equals_one_call_per_client_bit_for_bit(problem):
    """S clients' weight steps from a stacked copy of one network, then from their own
    branches: each client's loss, gradients and stepped branches have the bits of its
    own call."""
    weights, biases, logits, shared, x, y = problem
    clients = logits.shape[0]
    net, stacked = as_nn(weights, biases, logits, shared)
    stacked_net, _ = as_nn([np.stack([w] * clients) for w in weights],
                           [np.stack([b] * clients) for b in biases], logits, shared)
    alphas = [nn.AlphaParams(z, len(weights), shared) for z in logits]
    batches = list(zip(np.split(x, clients), np.split(y, clients)))
    own = [net] * clients
    for step in range(2):
        losses, (d_weights, d_biases) = nn.loss_and_grads(stacked_net, stacked, (x, y), "w")
        assert losses.shape == (clients,)
        for k, (alpha, batch) in enumerate(zip(alphas, batches)):
            loss, grads = nn.loss_and_grads(own[k], alpha, batch, "w")
            assert losses[k] == loss
            for got, want in zip((d_weights, d_biases), grads):  # before the steps consume them
                for layer_got, layer_want in zip(got, want):
                    np.testing.assert_array_equal(layer_got[k], layer_want)
            own[k] = nn.step_network(own[k], grads, 0.7, step > 0)
        stacked_net = nn.step_network(stacked_net, (d_weights, d_biases), 0.7, step > 0)
        for k in range(clients):
            for got, want in zip(stacked_net.layers, own[k].layers):
                np.testing.assert_array_equal(got.weights[k], want.weights)
                np.testing.assert_array_equal(got.biases[k], want.biases)


@pytest.mark.parametrize("clients", [2, 3, 10])
@pytest.mark.parametrize("own_branches", [False, True], ids=["shared", "stacked"])
@pytest.mark.parametrize("branches,dims,shared,rows", SHAPES, ids=SHAPE_IDS)
def test_a_stacked_batch_loss_equals_one_call_per_client_bit_for_bit(
        branches, dims, shared, rows, own_branches, clients):
    """S clients' losses on one network, or on their own stacked (S, B, out, in) branches,
    in one call: each has the bits of the client's own batch_loss call."""
    problems = [make_problem(branches, dims, shared, rows, seed=k) for k in range(clients)]
    weights, biases = problems[0][:2]
    if own_branches:
        weights, biases = ([np.stack(arrays) for arrays in zip(*(p[i] for p in problems))]
                           for i in (0, 1))
    logits = np.stack([p[2] for p in problems])
    x, y = (np.concatenate([p[i] for p in problems]) for i in (3, 4))
    net, stacked = as_nn(weights, biases, logits, shared)
    losses = nn.batch_loss(net, stacked, x, y)
    assert losses.shape == (clients,)
    for k, (_, _, own_logits, own_x, own_y) in enumerate(problems):
        own = ([w[k] for w in weights], [b[k] for b in biases]) if own_branches else (
            weights, biases)
        assert losses[k] == nn.batch_loss(*as_nn(*own, own_logits, shared), own_x, own_y)


def test_forward_refuses_stacked_logits():
    """Both gradient groups, batch_loss and forward, which serves evaluation, refuse
    stacked logits whose batch does not split into equal client batches; gradient_check
    takes no client axis."""
    weights, biases, _, x, y = make_problem(3, (4, 5, 3), False, 6)
    net, stacked = as_nn(weights, biases, np.zeros((3, 2, 3)), False)
    for call in (lambda: nn.loss_and_grads(net, stacked, (x[:5], y[:5]), "alpha"),
                 lambda: nn.loss_and_grads(net, stacked, (x[:5], y[:5]), "w"),
                 lambda: nn.batch_loss(net, stacked, x[:5], y[:5]),
                 lambda: nn.forward(net, stacked, x[:5])):
        with pytest.raises(UsageError, match="5 rows do not split into 3 equal client batches"):
            call()
    assert nn.forward(net, stacked, x).shape == (3, 2, 3)
    with pytest.raises(UsageError, match="gradient_check takes no client axis"):
        nn.gradient_check(net, stacked, (x, y))


def test_stacked_branches_need_logits_stacked_for_as_many_clients():
    """A layer's leading client axis must match the logits': a network stacked for three
    clients refuses one client's logits and two clients' logits alike."""
    weights, biases, logits, x, y = make_problem(3, (4, 5, 3), False, 6)
    stacked_net, _ = as_nn([np.stack([w] * 3) for w in weights],
                           [np.stack([b] * 3) for b in biases], logits, False)
    for z in (logits, np.stack([logits] * 2)):
        alpha = nn.AlphaParams(z, 2, False)
        for call in (lambda: nn.forward(stacked_net, alpha, x),
                     lambda: nn.batch_loss(stacked_net, alpha, x, y),
                     lambda: nn.loss_and_grads(stacked_net, alpha, (x, y), "w")):
            with pytest.raises(UsageError, match="stacked for as many clients"):
                call()
    with pytest.raises(ConfigurationError, match="shape"):
        nn.MultiBranchDense(np.zeros((1, 2, 3, 4, 5)), np.zeros((1, 2, 3, 4)))
    with pytest.raises(ConfigurationError, match="bias shape"):
        nn.MultiBranchDense(np.zeros((2, 3, 4, 5)), np.zeros((3, 4)))
