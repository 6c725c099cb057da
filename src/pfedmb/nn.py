"""Dense multi-branch network kernel.

A multi-branch dense layer keeps B parallel (weight, bias) pairs.  Given a
mixing vector alpha on the probability simplex, the effective layer is the
convex combination W = sum_b alpha_b * W_b (same for the bias), and the layer
output x @ W.T + b equals the alpha-weighted sum of the per-branch outputs.
Combining the branches first is simply the cheaper evaluation order; the
equivalence of the two orders is a tested invariant.

Mixing vectors are parameterized as softmax(logits), so unconstrained SGD on
the logits keeps alpha on the simplex and strictly positive.  Gradients for
the mixing weights are therefore reported with respect to the logits (softmax
Jacobian applied to the raw alpha gradient), and finite-difference checks
perturb logits, not alpha.

forward, batch_loss and loss_and_grads check a batch once and share one forward
pass and one cross entropy.  loss_and_grads differentiates one parameter group
per call, the one a local-learning phase trains, and returns it in the form
step_network or step_alpha takes.  Everything is float64.  No operation mutates its
inputs but the gradients a step consumes and the parameters a step is told it owns.
A leading axis of logits runs S clients at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, UsageError

SIMPLEX_ATOL = 1e-9
GRADCHECK_TOLERANCE = 1e-4  # gradient_check passes at or below this relative error

WRT_W = "w"
WRT_ALPHA = "alpha"

_UNLABELED = object()  # forward's batches carry no labels; None is a bad label array


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax, in float64, or in longdouble for gradient_check's copies."""
    z = np.asarray(logits, dtype=np.promote_types(np.asarray(logits).dtype, np.float64))
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class MultiBranchDense:
    """One layer's B branches: weights ([S,] B, out_dim, in_dim), biases ([S,] B, out_dim);
    the leading axis stacks S clients' branches, as loss_and_grads "w" takes them."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.biases = np.ascontiguousarray(self.biases, dtype=np.float64)
        if self.weights.ndim not in (3, 4):
            raise ConfigurationError("branch weights must have shape ([S,] B, out_dim, in_dim)")
        if self.biases.shape != self.weights.shape[:-1]:
            raise ConfigurationError(
                f"bias shape {self.biases.shape} does not match weights {self.weights.shape}"
            )
        if self.num_branches < 1:
            raise ConfigurationError("a layer needs at least one branch")

    @property
    def num_branches(self) -> int:
        return self.weights.shape[-3]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-1]

    def copy(self) -> "MultiBranchDense":
        return MultiBranchDense(self.weights.copy(), self.biases.copy())


@dataclass
class AlphaParams:
    """Branch-mixing logits: one row per layer, or a single row shared by all layers.

    The simplex-valued mixing weights are always derived as softmax of the
    logits; only the logits are ever updated.  Logits (S, rows, B) stack S clients.
    """

    logits: np.ndarray
    num_layers: int
    shared: bool = False

    def __post_init__(self):
        self.logits = np.ascontiguousarray(self.logits, dtype=np.float64)
        if self.logits.ndim not in (2, 3):
            raise ConfigurationError("alpha logits must have shape (rows, B) or (S, rows, B)")
        rows = 1 if self.shared else self.num_layers
        if self.logits.shape[-2] != rows:
            raise ConfigurationError(
                f"expected {rows} logit rows for {self.num_layers} layers "
                f"(shared={self.shared}), got {self.logits.shape[-2]}"
            )

    @property
    def num_branches(self) -> int:
        return self.logits.shape[-1]

    def values(self) -> np.ndarray:
        """Simplex mixing weights, one row per layer, shape ([S,] num_layers, B)."""
        v = softmax(self.logits)
        if self.shared and self.num_layers > 1:
            v = np.repeat(v, self.num_layers, axis=-2)
        return v

    def copy(self) -> "AlphaParams":
        return AlphaParams(self.logits.copy(), self.num_layers, self.shared)


def uniform_alpha(num_layers: int, num_branches: int, shared: bool = False) -> AlphaParams:
    """All-zero logits, i.e. every branch weighted 1/B."""
    rows = 1 if shared else num_layers
    return AlphaParams(np.zeros((rows, num_branches)), num_layers, shared)


@dataclass
class Network:
    """A chain of multi-branch dense layers with ReLU between them.

    The last layer emits class logits; the loss is softmax cross entropy.
    """

    layers: list

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ConfigurationError("a network needs at least one layer")
        b = self.layers[0].num_branches
        for i, layer in enumerate(self.layers):
            if layer.num_branches != b:
                raise ConfigurationError("all layers must share the same branch count")
            if i > 0 and layer.in_dim != self.layers[i - 1].out_dim:
                raise ConfigurationError(
                    f"layer {i} expects in_dim={layer.in_dim} but layer {i - 1} "
                    f"emits {self.layers[i - 1].out_dim}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_branches(self) -> int:
        return self.layers[0].num_branches

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def num_classes(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "Network":
        return Network([layer.copy() for layer in self.layers])


def init_network(layer_dims, num_branches: int, seed) -> Network:
    """Fresh network with per-branch uniform(+-1/sqrt(in_dim)) weights, zero biases.

    Branches are initialized independently; identical branches would stay
    redundant under the symmetric gradients they receive.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigurationError(f"layer_dims must be >=2 positive sizes, got {layer_dims}")
    if num_branches < 1:
        raise ConfigurationError("num_branches must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    for in_dim, out_dim in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(in_dim)
        w = rng.uniform(-bound, bound, size=(num_branches, out_dim, in_dim))
        layers.append(MultiBranchDense(w, np.zeros((num_branches, out_dim))))
    return Network(layers)


def _combine(layer: MultiBranchDense, a: np.ndarray) -> tuple:
    w = np.einsum("...b,...boi->...oi", a, layer.weights)  # a: ([S,] B), weights: ([S,] B, o, i)
    return w, (a[..., None, :] @ layer.biases)[..., 0, :]


def combine_branches(layer: MultiBranchDense, alpha_l) -> tuple:
    """Collapse a layer to a single (weights, bias) pair via convex combination."""
    a = np.asarray(alpha_l, dtype=np.float64).reshape(-1)
    if a.shape[0] != layer.num_branches:
        raise ConfigurationError(
            f"mixing vector has {a.shape[0]} entries for {layer.num_branches} branches"
        )
    # written so that a NaN entry, which fails every comparison, fails the check
    if not (a.min() >= -SIMPLEX_ATOL and abs(a.sum() - 1.0) <= SIMPLEX_ATOL):
        raise ConfigurationError("mixing vector is not on the probability simplex")
    return _combine(layer, a)


def _trusted(cls, **fields):
    """An instance of dataclass cls from fields known to be valid; skips __post_init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def integral_labels(labels: np.ndarray) -> bool:
    """Whether every label is an integer: an integer dtype, or floats such as 1.0."""
    if labels.dtype.kind in "biu":
        return True
    return labels.dtype.kind == "f" and bool((labels == np.round(labels)).all())


def _check_batch(net: Network, alpha: AlphaParams, x, labels=_UNLABELED) -> tuple:
    """(x as float64, labels as int64) after checking that both fit net and alpha."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigurationError(f"expected a 2-D matrix, got ndim={x.ndim}")
    if labels is not _UNLABELED:
        labels = np.asarray(labels)
        if x.shape[0] == 0:
            raise UsageError("empty batch")
        if labels.shape != (x.shape[0],):
            raise UsageError(f"labels shape {labels.shape} does not match batch of {x.shape[0]}")
        if not integral_labels(labels):
            raise UsageError(f"labels must be integers, got non-integral {labels.dtype} values")
        if labels.min() < 0 or labels.max() >= net.num_classes:
            raise UsageError(f"labels must lie in [0, {net.num_classes}); "
                             f"got range [{labels.min()}, {labels.max()}]")
        labels = labels.astype(np.int64, copy=False)
    if x.shape[1] != net.in_dim:
        raise ConfigurationError(f"input has {x.shape[1]} features, network expects {net.in_dim}")
    if alpha.num_layers != net.num_layers or alpha.num_branches != net.num_branches:
        raise ConfigurationError(
            f"alpha for {alpha.num_layers} layers x {alpha.num_branches} branches does not "
            f"fit a network with {net.num_layers} layers x {net.num_branches} branches"
        )
    if any(layer.weights.shape[:-3] not in ((), alpha.logits.shape[:-2]) for layer in net.layers):
        raise UsageError("stacked branches need logits stacked for as many clients")
    if alpha.logits.ndim == 3:
        clients = alpha.logits.shape[0]
        if not clients or x.shape[0] % clients:
            raise UsageError(f"{x.shape[0]} rows do not split into {clients} equal client batches")
        x = x.reshape(clients, -1, x.shape[1])  # S batches, back to back
    return x, labels


def forward(net: Network, alpha: AlphaParams, x) -> np.ndarray:
    """Class logits for a batch, shape (n, num_classes); with S clients' logits and
    batches back to back, as batch_loss takes them, shape (S, n / S, num_classes).

    Evaluates each layer through its combined weights; ReLU between layers,
    identity after the last.
    """
    x, _ = _check_batch(net, alpha, x)
    # overflow is reported by the finiteness check, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward(net, alpha.values(), x, keep=False)[0][-1]


def _forward(net: Network, avals: np.ndarray, x: np.ndarray, keep: bool = True) -> tuple:
    """([x, *layer outputs], combined weights) of a checked x, under the caller's np.errstate;
    unless keep, only the last output and no weights: a layer's input is freed as it runs."""
    # the rows of avals come from a softmax: no simplex check as in combine_branches
    acts, ws = [x], []
    for l, layer in enumerate(net.layers):
        w, b = _combine(layer, avals[..., l, :])
        z = (acts[-1] if keep else acts.pop()) @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite activations in layer {l}")
        ws.append(w if l and keep else None)  # the backward pass reads no first-layer weights
        acts.append(np.maximum(z, 0.0, out=z) if l < net.num_layers - 1 else z)
    return acts, ws


def _nll(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """(mean cross entropy per client, log-softmax) of ([S,] n, C) logits, in np.errstate."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = logp.reshape(-1, logp.shape[-1])[np.arange(labels.shape[0]), labels]
    # terms are <= 0 or NaN, so a finite total means finite losses; sum / n has .mean()'s bits
    if not math.isfinite(picked.sum()):
        raise NumericError("non-finite loss")
    return -picked.reshape(logits.shape[:-1]).sum(axis=-1) / logits.shape[-2], logp


def batch_loss(net: Network, alpha: AlphaParams, x, labels):
    """Mean softmax cross entropy of the batch, no gradients; raises NumericError if non-finite.
    With S clients' logits and batches, as loss_and_grads takes them, the (S,) losses."""
    x, labels = _check_batch(net, alpha, x, labels)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = _nll(_forward(net, alpha.values(), x, keep=False)[0][-1], labels)[0]
    return loss if loss.ndim else float(loss)


def loss_and_grads(net: Network, alpha: AlphaParams, batch, wrt: str):
    """Mean cross entropy plus the exact reverse-mode gradient of one parameter group.

    wrt "w" gives (loss, (d_weights, d_biases)), one array per layer shaped like
    its branch parameters, as step_network takes it; wrt "alpha" gives
    (loss, d_logits) shaped like AlphaParams.logits (summed over layers when the
    logits are shared), as step_alpha takes it.  The other group is neither
    computed nor allocated.  Either group takes S clients' logits (S, rows, B) with S
    batches back to back; "w" then takes S clients' branches (S, B, out, in).
    """
    if wrt not in (WRT_W, WRT_ALPHA):
        raise UsageError(f"wrt must be 'w' or 'alpha'; got {wrt!r}")
    x, labels = _check_batch(net, alpha, *batch)
    # overflow and non-finite gradients surface in the finiteness checks, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        avals = alpha.values()
        acts, ws = _forward(net, avals, x)
        loss, logp = _nll(acts.pop(), labels)

        # dL/dz at the output: (softmax - onehot) / n; logp is read no more
        dz = np.exp(logp)
        del logp
        dz.reshape(-1, dz.shape[-1])[np.arange(labels.shape[0]), labels] -= 1.0
        dz /= x.shape[-2]

        d_weights, d_biases = [None] * net.num_layers, [None] * net.num_layers
        # the alpha phase sets every row
        d_values = np.empty(avals.shape) if wrt == WRT_ALPHA else None
        for l in reversed(range(net.num_layers)):
            layer = net.layers[l]
            dw_combined = dz.swapaxes(-1, -2) @ acts[l]
            db_combined = dz.sum(axis=-2)
            if wrt == WRT_W:
                # z depends on branch b only through alpha_b * (W_b, b_b)
                a = avals[..., l, :]
                d_weights[l] = a[..., None, None] * dw_combined[..., None, :, :]
                d_biases[l] = a[..., None] * db_combined[..., None, :]
            else:
                # dL/dalpha_b = <dW_combined, W_b> + <db_combined, b_b>
                d_values[..., l, :] = np.einsum("...oi,boi->...b", dw_combined, layer.weights)
                d_values[..., l, :] += (layer.biases @ db_combined[..., None])[..., 0]
            if l > 0:
                dz = dz @ ws[l]
                dz *= acts[l] > 0.0  # relu(z) > 0 exactly where z > 0
            acts[l] = ws[l] = None  # past layer l, the pass reads neither again

        if wrt == WRT_W:
            return loss, (d_weights, d_biases)
        # chain rule through the softmax: v * (d - <v, d>)
        v = avals[..., :1, :] if alpha.shared else avals
        if alpha.shared:
            d_values = d_values.sum(axis=-2, keepdims=True)
        return loss, v * (d_values - (v * d_values).sum(axis=-1, keepdims=True))


def _step(params: np.ndarray, grads: np.ndarray, learning_rate: float, own: bool) -> np.ndarray:
    """Plain SGD params - lr*grads, lr*grads rounded first, into params if own, else grads."""
    grads *= learning_rate
    return np.subtract(params, grads, out=params if own else grads)


def step_network(net: Network, grads: tuple, learning_rate: float, own: bool) -> Network:
    """net with every branch stepped by plain SGD, consuming grads, the (d_weights, d_biases)
    of loss_and_grads for wrt "w": in place, returning net, if the caller owns net's arrays;
    otherwise into grads, returned as a network that leaves net as it was."""
    layers = [_trusted(MultiBranchDense, weights=_step(layer.weights, d_w, learning_rate, own),
                       biases=_step(layer.biases, d_b, learning_rate, own))
              for layer, d_w, d_b in zip(net.layers, *grads)]
    return net if own else _trusted(Network, layers=layers)


def step_alpha(alpha: AlphaParams, grads: np.ndarray, learning_rate: float,
               own: bool) -> AlphaParams:
    """Mixing logits stepped by plain SGD on the logit gradient, consumed as step_network's."""
    logits = _step(alpha.logits, grads, learning_rate, own)
    return alpha if own else _trusted(AlphaParams, logits=logits, num_layers=alpha.num_layers,
                                      shared=alpha.shared)


@dataclass
class GradCheckReport:
    """Max relative error of analytic vs central-difference gradients per group, over the
    coordinates not skipped at a ReLU kink (inf if a group's every one was), and the count
    of skipped coordinates."""

    w_error: float
    alpha_error: float
    skipped: int

    @property
    def passed(self) -> bool:
        return self.w_error <= GRADCHECK_TOLERANCE and self.alpha_error <= GRADCHECK_TOLERANCE


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def gradient_check(net: Network, alpha: AlphaParams, batch, h: float = 1e-5) -> GradCheckReport:
    """Compare loss_and_grads, one call per group, against central finite differences.

    Perturbs every branch weight, bias, and mixing logit by +-h and reports
    the max relative error |a - n| / max(|a|, |n|, 1e-8) per parameter group.  A
    coordinate whose +h and -h evaluations differ in which ReLU units are active on the
    batch straddles a kink, where the difference quotient is no derivative: it is skipped.
    The quotient is a Richardson step over +-h and +-h/2 of losses in np.longdouble, which
    resolves gradients near 0 where longdouble is wider than float64 (not on MSVC or arm64).
    """
    if not 0.0 < h <= 1e-2:
        raise ConfigurationError(f"h must be in (0, 1e-2], got {h}")
    if alpha.logits.ndim == 3:
        raise UsageError("gradient_check takes no client axis")
    x, labels = _check_batch(net, alpha, *batch)
    _, (d_weights, d_biases) = loss_and_grads(net, alpha, (x, labels), WRT_W)
    _, d_logits = loss_and_grads(net, alpha, (x, labels), WRT_ALPHA)

    net, alpha = net.copy(), alpha.copy()
    arrays = [a for layer in net.layers for a in (layer.weights, layer.biases)] + [alpha.logits]
    wide = [a.astype(np.longdouble) for a in arrays]  # the copies whose losses are differenced
    wide_net = _trusted(Network, layers=[_trusted(MultiBranchDense, weights=w, biases=b)
                                         for w, b in zip(wide[:-1:2], wide[1::2])])
    wide_alpha = _trusted(AlphaParams, **{**vars(alpha), "logits": wide[-1]})

    def loss_at(k, idx, step):
        """(longdouble loss, float64 kink masks at +-h) with arrays[k][idx] moved by step."""
        orig = arrays[k][idx], wide[k][idx]
        arrays[k][idx], wide[k][idx] = orig[0] + step, orig[1] + step
        with np.errstate(over="ignore", invalid="ignore"):
            acts = _forward(net, alpha.values(), x)[0] if abs(step) == h else []
            loss = _nll(_forward(wide_net, wide_alpha.values(), x, keep=False)[0][-1], labels)[0]
        arrays[k][idx], wide[k][idx] = orig
        return loss, [a > 0.0 for a in acts[1:-1]]

    def rel_errors(k, grads):
        """Per coordinate of arrays[k], its relative error, or None where +-h straddle a kink."""
        for idx in np.ndindex(grads.shape):
            (hi, on), (lo, off), (hi2, _), (lo2, _) = (loss_at(k, idx, step)
                                                       for step in (h, -h, h / 2, -h / 2))
            numeric = (4.0 * (hi2 - lo2) / h - (hi - lo) / (2.0 * h)) / 3.0  # O(h**4)
            kink = not all(map(np.array_equal, on, off))
            yield None if kink else _rel_err(grads[idx], float(numeric))

    grads = [g for pair in zip(d_weights, d_biases) for g in pair] + [d_logits]
    errs = [list(rel_errors(k, g)) for k, g in enumerate(grads)]
    w_errs, a_errs = sum(errs[:-1], []), errs[-1]
    w_err, a_err = (max((e for e in errs if e is not None), default=math.inf)
                    for errs in (w_errs, a_errs))
    return GradCheckReport(w_err, a_err, (w_errs + a_errs).count(None))
