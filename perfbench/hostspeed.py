"""Host-speed reference for the end-to-end timings.

The benchmark shares a 2-vCPU host with other tenants. There the same frame,
with the same input, takes from 250 to 430 ms from one second to the next.
Over minutes the host's speed drifts by about as much, so runs at different
times disagree by 15-25% however long each one is. The reference kernel is a
fixed computation that does not use gyromodem: FFTs, a polyphase resampler,
an FIR convolution and interpreter-bound small numpy calls, the kinds of
work a frame does. It runs between rounds of timed operations, one sample
per REF_EVERY_S of measured work, and slows down with the host. A timing divided by the median
reference time around it, times REF_NOMINAL_S, is the time it would take
on a host where the reference takes REF_NOMINAL_S. That is the
host-adjusted time the benchmark reports. The raw wall-clock figures are
recorded and printed beside it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy import signal as sps

# median reference time on the 2-vCPU host the bounds were set on
REF_NOMINAL_S = 0.013
REF_EVERY_S = 0.3
MIN_SAMPLES = 3


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(1 << 17)
        self._z = self._x[:1 << 15] * np.exp(1j * self._x[:1 << 15])
        self._taps = sps.firwin(301, 0.1)

    def sample(self) -> float:
        t = perf_counter()
        np.fft.rfft(self._x)
        sps.fftconvolve(self._x, self._taps, mode="same")
        sps.resample_poly(self._z, 1, 8)
        acc = 0.0
        for k in range(400):
            acc += float(np.dot(self._x[k:k + 64], self._x[k:k + 64]))
        return perf_counter() - t

    def streak(self, seconds: float) -> list:
        """Reference times for `seconds` of measured work, MIN_SAMPLES at
        least. The first sample after other work runs 20-40% slow whatever
        the host does, so it is run but not kept."""
        self.sample()
        return [self.sample()
                for _ in range(max(MIN_SAMPLES, round(seconds / REF_EVERY_S)))]


def scale(ref_samples) -> float:
    """Factor that turns a wall time measured next to these reference
    samples into host-adjusted time."""
    return REF_NOMINAL_S / statistics.median(ref_samples)
