"""Span recorder for the traced benchmark run.

The recorder wraps public cbfsim functions where one module calls another,
by replacing the module attribute the caller looks up (for example
``cbfsim.simulate.mmse_decode_streams`` is simulate's reference to an stbc
function).  Each call becomes a span ``[id, parent, name, t0_ns, t1_ns,
extra]``; spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

# (module whose attribute is replaced, attribute, span name).  The span name
# is the layer that does the work.  simulate reaches channel through the
# module object (``chan.complex_noise``), so those are replaced in channel.
# transmit_* are simulate's own, wrapped to split transmit from the rest.
TRACE_POINTS = [
    ("cbfsim.cli", "run_ber", "simulate.run_ber"),
    ("cbfsim.cli", "find_complementary_pair", "beams.find"),
    ("cbfsim.cli", "find_complementary_triple", "beams.find"),
    ("cbfsim.cli", "composite_pattern", "arrays.composite_pattern"),
    ("cbfsim.cli", "beam_pattern", "arrays.beam_pattern"),
    ("cbfsim.simulate", "transmit_cbf", "simulate.transmit"),
    ("cbfsim.simulate", "transmit_rbf", "simulate.transmit"),
    ("cbfsim.simulate", "transmit_single", "simulate.transmit"),
    ("cbfsim.simulate", "mmse_decode_streams", "stbc.mmse_decode_streams"),
    ("cbfsim.simulate", "gain_power", "arrays.gain_power"),
    ("cbfsim.simulate", "subarray_gains", "arrays.subarray_gains"),
    ("cbfsim.channel", "complex_noise", "channel.complex_noise"),
    ("cbfsim.channel", "rayleigh_pair_gains", "channel.rayleigh_pair_gains"),
    ("cbfsim.channel", "qpsk_modulate", "channel.qpsk_modulate"),
    ("cbfsim.channel", "qpsk_demodulate", "channel.qpsk_demodulate"),
    ("cbfsim.beams", "steering_basis", "arrays.steering_basis"),
    ("cbfsim.beams", "beam_pattern", "arrays.beam_pattern"),
    ("cbfsim.beams", "composite_pattern", "arrays.composite_pattern"),
    ("cbfsim.beams", "gain_power", "arrays.gain_power"),
]


def _run_ber_extra(args, kwargs, curve):
    config = args[0] if args else kwargs["config"]
    return [f"{config.scheme.kind}_{config.channel}",
            config.resolved_max_bits, [p.bits for p in curve.points]]


def _find_extra(args, kwargs, beams):
    return [beams.meta.method, beams.meta.candidates]


def _noise_extra(args, kwargs, result):
    return math.prod(result.shape)


def _codewords_extra(args, kwargs, result):
    return result[0].size


# Span attributes taken from a call's arguments and result.
EXTRAS = {
    "simulate.run_ber": _run_ber_extra,
    "beams.find": _find_extra,
    "channel.complex_noise": _noise_extra,
    "stbc.mmse_decode_streams": _codewords_extra,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every module."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        for module_name, attr, name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # the program no longer has this call site
            setattr(module, attr, self._wrap(fn, name))
            self._patched.append((module, attr, fn))

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        record = [len(spans), stack[-1] if stack else -1, name,
                  time.perf_counter_ns(), 0, None]
        spans.append(record)
        stack.append(record[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            record[4] = time.perf_counter_ns()
        extra = EXTRAS.get(name)
        if extra is not None:
            try:
                record[5] = extra(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # the call's signature changed; the span keeps no extra
        return result

    def _wrap(self, fn, name):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


_SELF_TIMES = {
    "cli.main": "cli.self_s",
    "simulate.run_ber": "simulate.self_s",
    "simulate.transmit": "simulate.transmit_self_s",
    "channel.complex_noise": "channel.noise_s",
    "channel.rayleigh_pair_gains": "channel.fading_s",
    "channel.qpsk_modulate": "channel.modulate_s",
    "channel.qpsk_demodulate": "channel.demod_s",
    "stbc.mmse_decode_streams": "stbc.decode_s",
    "arrays.steering_basis": "arrays.steering_s",
    "arrays.subarray_gains": "arrays.steering_s",
    "arrays.beam_pattern": "arrays.steering_s",
    "arrays.gain_power": "arrays.gain_power_s",
    "arrays.composite_pattern": "arrays.composite_s",
}

SCHEME_CHANNELS = [f"{s}_{c}" for s in ("cbf", "rbf", "single")
                   for c in ("awgn", "rayleigh")]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts over a contiguous slice of spans
    (one repetition).  Layers a workload never calls read 0."""
    out = defaultdict(float)
    for key in [*_SELF_TIMES.values(), "beams.exhaustive_self_s",
                "beams.stochastic_self_s"]:
        out[key] = 0.0
    if not spans:
        return dict(out)
    base = spans[0][0]
    child_ns = [0] * len(spans)
    for s in spans:
        if s[1] >= base:
            child_ns[s[1] - base] += s[4] - s[3]
    # Search method of the nearest enclosing beams.find span; parents are
    # recorded before their children, so one forward pass fills it.
    method = [None] * len(spans)
    pair_bits = defaultdict(int)
    pair_ns = defaultdict(int)
    point_bits = []
    counts = defaultdict(int)
    for i, (_, parent, name, t0, t1, extra) in enumerate(spans):
        self_s = (t1 - t0 - child_ns[i]) * 1e-9
        if name in _SELF_TIMES:
            out[_SELF_TIMES[name]] += self_s
        if name == "beams.find":
            method[i] = extra[0] if extra else None
            if method[i] in ("exhaustive", "stochastic"):
                out[f"beams.{method[i]}_self_s"] += self_s
            if extra:
                counts["beams.candidates"] += extra[1]
                if method[i] == "stochastic":
                    counts["beams.stochastic_evals"] += extra[1]
        elif parent >= base:
            method[i] = method[parent - base]
        if name == "simulate.run_ber" and extra:
            pair, max_bits, bits = extra
            pair_bits[pair] += sum(bits)
            pair_ns[pair] += t1 - t0
            point_bits.extend(bits)
            counts["simulate.points_at_max_bits"] += sum(
                b >= max_bits for b in bits)
        elif name == "simulate.transmit":
            counts["simulate.batches"] += 1
        elif name == "channel.complex_noise" and extra:
            counts["channel.noise_samples"] += extra
        elif name == "stbc.mmse_decode_streams" and extra:
            counts["stbc.codewords"] += extra
        elif name == "arrays.gain_power":
            counts["arrays.gain_power_calls"] += 1
            if method[i] == "stochastic":
                counts["beams.stochastic_misses"] += 1
    total_bits = sum(point_bits)
    out["simulate.bits"] = total_bits
    out["simulate.points"] = len(point_bits)
    out["simulate.max_point_share"] = (max(point_bits) / total_bits
                                       if total_bits else 0.0)
    for pair in SCHEME_CHANNELS:
        ns = pair_ns[pair]
        out[f"simulate.mbit_s.{pair}"] = pair_bits[pair] / ns * 1e3 if ns else 0.0
    for key in ("simulate.points_at_max_bits", "simulate.batches",
                "channel.noise_samples", "stbc.codewords",
                "arrays.gain_power_calls", "beams.candidates",
                "beams.stochastic_evals"):
        out[key] = counts[key]
    evals = counts["beams.stochastic_evals"]
    out["beams.stochastic_miss_ratio"] = (
        counts["beams.stochastic_misses"] / evals if evals else 0.0)
    return dict(out)
