"""In-memory call spans around public pfedmb functions, installed from outside.

The benchmark treats the simulator as a black box and never edits its source.
A Tracer replaces each named function with a timing wrapper in every loaded
pfedmb module that binds it (``from .data import partition`` makes a second
binding in ``federation``), and puts every original back when it exits, also
when the traced call raised.  Spans stay in memory; ``layer_metrics`` reduces
them once the run has ended.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

# The public functions the per-layer metrics are built from, by layer.
LAYERS = {
    "config": ("parse_config",),
    "data": ("generate_synthetic", "partition"),
    "nn": ("forward", "loss_and_grads", "batch_loss", "step_network", "step_alpha"),
    "federation": (
        "setup_experiment", "run_round", "client_local_learning", "aggregate",
        "fine_tune", "run_experiment",
    ),
    "metrics": ("evaluate_client", "emit_results"),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Same constant as federation.aggregate: a branch whose coefficient mass falls
# below this share of the total sample count keeps its previous value.
AGGREGATE_FLOOR = 1e-12


def _note_loss_and_grads(args, kwargs):
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    wrt = args[3] if len(args) > 3 else kwargs.get("wrt", "both")
    return wrt, len(batch[0])


def _note_aggregate(args, kwargs):
    """(bytes of the incoming updates, branches that hit the dead-branch floor)."""
    updates = args[0] if args else kwargs["updates"]
    strategy = args[1] if len(args) > 1 else kwargs["strategy"]
    bytes_in = 0
    for u in updates:
        bytes_in += u.alpha_values.nbytes
        for layer in u.model.layers:
            bytes_in += layer.weights.nbytes + layer.biases.nbytes
    counts = np.array([float(u.num_samples) for u in updates])
    if getattr(strategy, "name", "") == "ALPHA_WEIGHTED":
        mass = np.einsum("i,ilb->lb", counts, np.stack([u.alpha_values for u in updates]))
    else:
        mass = np.full(updates[0].alpha_values.shape, counts.sum())
    return bytes_in, int((mass < AGGREGATE_FLOOR * counts.sum()).sum())


NOTES = {"nn.loss_and_grads": _note_loss_and_grads, "federation.aggregate": _note_aggregate}


def _pfedmb_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pfedmb" or name.startswith("pfedmb."))]


class Tracer:
    """Context manager recording (name, start, end, parent, note) per traced call.

    ``parent`` is the index of the enclosing traced span, -1 at top level.
    Notes are taken before the clock starts, so their cost is not in the span.
    """

    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        modules = _pfedmb_modules()
        try:
            for qual in self.names:
                layer, fn_name = qual.split(".")
                original = getattr(sys.modules[f"pfedmb.{layer}"], fn_name)
                wrapper = self._wrap(qual, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans, stack, note, clock = self.spans, self._stack, NOTES.get(name), time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    note(args, kwargs) if note is not None else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.traced_name = name
        return wrapper


def unrestored():
    """'module.attribute' names that still hold a tracing wrapper."""
    return [f"{module.__name__}.{attr}" for module in _pfedmb_modules()
            for attr, value in vars(module).items() if hasattr(value, "traced_name")]


def layer_metrics(spans):
    """Per-layer figures of one traced run: (timings, counts), name -> (value, unit).

    Counts must repeat exactly between runs of one config.  Timings are per
    call where the name says so, per round for run_round.self_ms, and per
    experiment otherwise; self time excludes the traced calls a span encloses.
    """
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    lag_calls, lag_total = Counter(), defaultdict(float)
    rows = bytes_in = floor_hits = 0
    weight_start = {}   # client_local_learning span -> start of its first wrt="w" call
    for name, start, end, parent, note in spans:
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start
        if parent >= 0:
            self_time[spans[parent][0]] -= end - start
        if name == "nn.loss_and_grads":
            wrt, n = note
            lag_calls[wrt] += 1
            lag_total[wrt] += end - start
            rows += n
            if wrt == "w" and parent >= 0 and \
                    spans[parent][0] == "federation.client_local_learning":
                weight_start.setdefault(parent, start)
        elif name == "federation.aggregate":
            bytes_in += note[0]
            floor_hits += note[1]
    mixing = weight = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name == "federation.client_local_learning":
            cut = weight_start.get(i, end)
            mixing += cut - start
            weight += end - cut

    def mean(seconds, n, scale):
        return scale * seconds / n if n else 0.0

    counts = {
        "nn.loss_and_grads.alpha.calls": (lag_calls["alpha"], "count"),
        "nn.loss_and_grads.w.calls": (lag_calls["w"], "count"),
        "nn.forward.calls": (calls["nn.forward"], "count"),
        "nn.batch_rows_mean": (mean(rows, calls["nn.loss_and_grads"], 1), "rows"),
        "nn.batch_loss.calls": (calls["nn.batch_loss"], "count"),
        "federation.client_local_learning.calls": (
            calls["federation.client_local_learning"], "count"),
        "federation.aggregate.bytes_in": (bytes_in, "B"),
        "federation.aggregate.floor_hits": (floor_hits, "count"),
        "metrics.evaluate_client.calls": (calls["metrics.evaluate_client"], "count"),
        "samples": (rows, "count"),
    }
    timings = {
        "nn.loss_and_grads.alpha.us_per_call": (
            mean(lag_total["alpha"], lag_calls["alpha"], 1e6), "us"),
        "nn.loss_and_grads.w.us_per_call": (mean(lag_total["w"], lag_calls["w"], 1e6), "us"),
        **{f"{name}.us_per_call": (mean(total[name], calls[name], 1e6), "us") for name in (
            "nn.forward", "nn.step_network", "nn.step_alpha", "nn.batch_loss",
            "metrics.evaluate_client")},
        "federation.mixing_phase_s": (mixing, "s"),
        "federation.weight_phase_s": (weight, "s"),
        "federation.client_local_learning.self_s": (
            self_time["federation.client_local_learning"], "s"),
        "federation.aggregate.ms_per_call": (
            mean(total["federation.aggregate"], calls["federation.aggregate"], 1e3), "ms"),
        "federation.run_round.self_ms": (
            mean(self_time["federation.run_round"], calls["federation.run_round"], 1e3), "ms"),
        "federation.fine_tune.s": (total["federation.fine_tune"], "s"),
        "federation.run_experiment.self_ms": (1e3 * self_time["federation.run_experiment"], "ms"),
        **{f"{name}.ms": (1e3 * total[name], "ms") for name in (
            "metrics.emit_results", "config.parse_config", "data.generate_synthetic",
            "data.partition", "federation.setup_experiment")},
    }
    return timings, counts
