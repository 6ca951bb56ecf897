"""Spans and counts recorded from outside the package.

The tracer replaces module attributes with timing wrappers, at the place
where each caller looks the name up (``harness.apply_channel`` for the
harness, ``channel._translate`` for ``apply_channel``, ...), and puts the
originals back on exit. The package itself is not changed.

A span records name, operation id, parent span, start and end. Every span
opened while one operation (a frame, a decode, the set-up) runs shares that
operation's id. Hot inner calls get a call count and summed time on their
parent span instead of a span each. Spans stay in memory until the run
writes them out.
"""
from __future__ import annotations

import difflib
import functools
import importlib
import warnings
from collections import defaultdict
from time import perf_counter

SPAN, INLINE = "span", "inline"


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "inline")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = start
        self.inline = {}  # hot-call name -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_samples(key, pick):
    def hook(tracer, args, result):
        tracer.counts[key] += len(pick(args, result))
    return hook


def _clipped(tracer, args, result):
    tracer.counts["channel.jammer_clipped"] += int(result[1])


def _sent(tracer, args, result):
    tracer.sent = [tuple(p) for p in args[0]]
    tracer.counts["modem_tx.audio_samples"] += len(result)


def _rx_report(tracer, args, result):
    tracer.counts["modem_rx.sync_count"] += getattr(result, "sync_count", 0)
    tracer.counts["modem_rx.lost_sync_count"] += getattr(result, "lost_sync_count", 0)
    decoded = [tuple(f.payload) for f in getattr(result, "frames", [])]
    tracer.counts["modem_rx.frames_correct"] += matched_frames(tracer.sent, decoded)


def matched_frames(sent, decoded) -> int:
    """Decoded frames equal to a sent frame, matched in order."""
    blocks = difflib.SequenceMatcher(None, sent, decoded, autojunk=False)
    return sum(b.size for b in blocks.get_matching_blocks())


# (module, attribute, metric name, kind, hook run on the result)
WRAPS = (
    ("gyromodem.harness", "run_point", "harness.run_point", SPAN, None),
    ("gyromodem.harness", "transmit_frames", "modem_tx.transmit_frames", SPAN, _sent),
    ("gyromodem.modem_tx", "transmit_frames", "modem_tx.transmit_frames", SPAN, _sent),
    ("gyromodem.harness", "jam_waveform", "countermeasure.jam_waveform", SPAN, None),
    ("gyromodem.harness", "apply_channel", "channel.apply_channel", SPAN,
     _count_samples("channel.audio_samples_in", lambda a, r: a[0])),
    ("gyromodem.channel", "apply_channel", "channel.apply_channel", SPAN,
     _count_samples("channel.audio_samples_in", lambda a, r: a[0])),
    ("gyromodem.channel", "superpose", "channel.superpose", SPAN, _clipped),
    ("gyromodem.channel", "_translate", "channel._translate", SPAN, None),
    ("gyromodem.channel", "_shaped_noise", "channel._shaped_noise", SPAN, None),
    ("gyromodem.channel", "_calibrate_sigma", "channel._calibrate_sigma", SPAN, None),
    ("gyromodem.harness", "demodulate_stream", "modem_rx.demodulate_stream", SPAN, _rx_report),
    ("gyromodem.modem_rx", "demodulate_stream", "modem_rx.demodulate_stream", SPAN, _rx_report),
    ("gyromodem.modem_rx", "measure_snr", "modem_rx.measure_snr", SPAN, None),
    ("gyromodem.modem_rx", "stft", "sigcore.stft", SPAN, None),
    ("gyromodem.sigcore", "stft", "sigcore.stft", SPAN, None),
    ("gyromodem.calibration", "stft", "sigcore.stft", SPAN, None),
    ("gyromodem.harness", "stft", "sigcore.stft", SPAN, None),
    ("gyromodem.modem_rx", "_sync_candidate", "modem_rx._sync_candidate", INLINE, None),
    ("gyromodem.modem_rx", "_goertzel_energy", "modem_rx._goertzel_energy", INLINE, None),
    ("gyromodem.framing", "decode_frame", "framing.decode_frame", INLINE, None),
)


class Tracer:
    """Context manager: wraps every name in WRAPS on entry, restores on exit."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self.op = "setup"
        self.sent = []
        self._stack = []
        self._root = Span("(outside any span)", None, None, 0.0)
        self._undo = []

    def __enter__(self):
        self.absent = []
        for module_name, attr, name, kind, hook in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # a private name a later change removed: absent, not a failure
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = (self._span if kind == SPAN else self._inline)(original, name, hook)
            setattr(module, attr, wrapper)
            self._undo.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False

    def _span(self, fn, name, hook):
        catch = name == "channel._calibrate_sigma"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, parent, perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    self.counts["channel.leakage_limited"] += sum(
                        "leakage" in str(w.message) for w in caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _inline(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                owner = self._stack[-1] if self._stack else self._root
                entry = owner.inline.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += perf_counter() - start
        return wrapper

    # -- summaries -----------------------------------------------------------

    def self_times(self):
        """Span -> its duration minus the time its child spans and its
        inline-counted hot calls cover."""
        covered = defaultdict(float)
        for span in self.spans:
            covered[id(span)] += sum(s for _, s in span.inline.values())
            if span.parent is not None:
                covered[id(span.parent)] += span.duration
        return {id(s): s.duration - covered[id(s)] for s in self.spans}

    def totals(self, ops=None):
        """name -> [calls, seconds, self seconds] over the spans of the given
        ops (all when None); inline hot calls appear under their own name."""
        own = self.self_times()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        spans = [s for s in self.spans if ops is None or s.op in ops]
        for span in spans:
            row = out[span.name]
            row[0] += 1
            row[1] += span.duration
            row[2] += own[id(span)]
        for span in spans + ([self._root] if ops is None else []):
            for name, (calls, secs) in span.inline.items():
                row = out[name]
                row[0] += calls
                row[1] += secs
                row[2] += secs
        return out

    def per_layer(self, names):
        """Value of every per-layer metric in names; 0 for what never ran."""
        totals = self.totals()
        values = {}
        for name, (calls, secs, self_s) in totals.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = secs
            values[f"{name}.self_s"] = self_s
        values.update(self.counts)
        syncs = self.counts.get("modem_rx.sync_count", 0)
        values["modem_rx.sync_precision"] = (
            self.counts.get("modem_rx.frames_correct", 0) / syncs if syncs else 0.0)
        return {n: values.get(n, 0) for n in names}

    def shares(self, ops):
        """(name, self seconds, share of the ops' root-span time), largest first."""
        roots = sum(s.duration for s in self.spans if s.parent is None and s.op in ops)
        totals = self.totals(ops)
        rows = [(name, row[2], row[2] / roots if roots else 0.0)
                for name, row in totals.items()]
        return sorted(rows, key=lambda r: -r[1])

    def dump(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "op": s.op, "parent": index.get(id(s.parent)),
                 "start": s.start, "end": s.end,
                 **({"inline": s.inline} if s.inline else {})}
                for s in self.spans]
