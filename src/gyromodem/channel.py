"""Acoustic-to-gyroscope channel simulator.

Ultrasonic energy inside a device's resonance band reappears in the
gyroscope output at the offset frequency (f - band_lo), capped at the
device's gyro-domain ceiling. The simulator heterodynes the in-band
acoustic content down to baseband, resamples it to the gyro rate,
applies a resonance saturation nonlinearity, distributes it across the
affected axes, and adds seeded Gaussian sensor noise calibrated to a
requested tone-bin SNR.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import ndimage
from scipy import signal as sps

from .countermeasure import lowpass
from .sigcore import (DEFAULT_GYRO_RATE, TONE_FFT_SIZE, GyroTrace, Waveform, _cycles,
                      _median_inplace, _noise_bins, active_snr_db, bin_index,
                      frame_spectra, from_dict)

# Critical in-band drive level past which the MEMS resonance response
# collapses. Units are complex-envelope acoustic amplitude: a full-scale
# real tone has envelope 0.5, the default 0.2-amplitude carrier 0.1. A
# single constant-envelope tone below the level is never distorted;
# superposed sources beat above it and get their beat maxima quenched.
SATURATION_LEVEL = 0.15

# Sensor-noise spectral shaping: the resonance band of the gyro output is
# noisier than the rest of the spectrum by this power factor.
INBAND_NOISE_BOOST = 2.0

# Constant per-axis bias (rad/s); real gyros are never zero-centred, and the
# bias is what lets the vector-magnitude stream carry the injected frequency.
DEFAULT_AXIS_BIAS = (0.031, 0.024, 0.043)

PAD_SECONDS = 1.2  # silence guard around the input so filter edges settle


class ChannelError(ValueError):
    """Invalid channel-simulation request."""


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device resonance response description."""

    name: str
    band_lo: float
    band_hi: float
    gyro_max_freq: float
    axis_weights: Tuple[float, float, float]
    fsk_pair: Tuple[float, float]
    response_amplitude: float = 0.02  # rad/s per unit acoustic amplitude

    def __post_init__(self):
        if self.band_lo >= self.band_hi:
            raise ChannelError(f"{self.name}: band_lo must be below band_hi")
        if not all(self.band_lo <= f <= self.band_hi for f in self.fsk_pair):
            raise ChannelError(f"{self.name}: FSK pair outside the resonance band")
        if any(w < 0 for w in self.axis_weights) or max(self.axis_weights) <= 0:
            raise ChannelError(f"{self.name}: need at least one positive axis weight")
        if not 0 < self.gyro_max_freq <= DEFAULT_GYRO_RATE / 2:
            raise ChannelError(f"{self.name}: gyro_max_freq must be in "
                               f"(0, {DEFAULT_GYRO_RATE / 2:g}], got {self.gyro_max_freq}")
        if not self.response_amplitude > 0:
            raise ChannelError(f"{self.name}: response_amplitude must be positive, "
                               f"got {self.response_amplitude}")


@dataclass(frozen=True)
class ChannelCondition:
    """Everything that determines one simulation run.

    snr_db is the tone-bin SNR of the waveform as sent; None with noise_rms
    None disables noise. noise_rms pins the per-axis noise level directly
    (rad/s), bypassing SNR calibration. The two defences, a speaker
    low-pass at filter_cutoff (Hz) and a jammer, change only what reaches
    the gyroscope, never the noise level.
    """

    snr_db: Optional[float] = None
    noise_seed: int = 0
    jammer: Optional[Waveform] = None
    noise_rms: Optional[float] = None
    filter_cutoff: Optional[float] = None

    def __post_init__(self):
        if self.snr_db is not None and not np.isfinite(self.snr_db):
            raise ChannelError(f"snr_db must be finite, got {self.snr_db}")
        if self.noise_rms is not None and not 0 <= self.noise_rms < np.inf:
            raise ChannelError(f"noise_rms must be finite and >= 0, got {self.noise_rms}")
        if self.filter_cutoff is not None and not 0 < self.filter_cutoff < np.inf:
            raise ChannelError(f"filter_cutoff must be finite and positive, "
                               f"got {self.filter_cutoff}")


@dataclass(frozen=True)
class DistancePreset:
    """Distance (cm) to gyro-bin SNR (dB) lookup for one device in one room."""

    device: str
    room: str
    entries: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        dists = [d for d, _ in self.entries]
        if any(b <= a for a, b in zip(dists, dists[1:])):
            raise ChannelError("preset distances must be strictly ascending")


BUILTIN_PROFILES: Dict[str, DeviceProfile] = {
    "oneplus7": DeviceProfile(
        name="oneplus7", band_lo=20050.0, band_hi=20200.0, gyro_max_freq=100.0,
        axis_weights=(1.0, 1.0, 0.3), fsk_pair=(20120.0, 20135.0)),
    "s9": DeviceProfile(
        name="s9", band_lo=19500.0, band_hi=19660.0, gyro_max_freq=100.0,
        axis_weights=(1.0, 1.0, 0.3), fsk_pair=(19580.0, 19588.0)),
    "s10": DeviceProfile(
        name="s10", band_lo=19000.0, band_hi=19077.0, gyro_max_freq=80.0,
        axis_weights=(1.0, 1.0, 0.0), fsk_pair=(19065.0, 19077.0)),
    # Wider response window used for the 32-tone experiments; the harness's
    # default M-FSK band must land above DC in the gyro domain.
    "s10_mfsk": DeviceProfile(
        name="s10_mfsk", band_lo=18980.0, band_hi=19110.0, gyro_max_freq=130.0,
        axis_weights=(1.0, 1.0, 0.0), fsk_pair=(19065.0, 19077.0)),
}

_ROOM1_DISTANCES = (0.0, 50.0, 100.0, 150.0, 200.0)
_ROOM2_DISTANCES = tuple(float(d) for d in range(100, 900, 100))

BUILTIN_PRESETS: Dict[Tuple[str, str], DistancePreset] = {}


def _add_preset(device: str, room: str, dists, snrs):
    BUILTIN_PRESETS[(device, room)] = DistancePreset(
        device=device, room=room,
        entries=tuple(zip(dists, (float(s) for s in snrs))))


_add_preset("oneplus7", "open", _ROOM1_DISTANCES, (35, 25, 15, 10, 7))
_add_preset("s9", "open", _ROOM1_DISTANCES, (43, 33, 33, 30, 25))
_add_preset("s10", "open", _ROOM1_DISTANCES, (37, 33, 28, 20, 10))
_add_preset("oneplus7", "narrow", _ROOM2_DISTANCES, (26, 20, 15, 14, 13, 10, 14, 12))
_add_preset("s9", "narrow", _ROOM2_DISTANCES, (22, 27, 20, 16, 28, 16, 18, 26))
_add_preset("s10", "narrow", _ROOM2_DISTANCES, (18, 15, 15, 14, 18, 10, 10, 18))
# The 32-tone runs reuse the S10 narrow-room link budget.
BUILTIN_PRESETS[("s10_mfsk", "narrow")] = replace(
    BUILTIN_PRESETS[("s10", "narrow")], device="s10_mfsk")
BUILTIN_PRESETS[("s10_mfsk", "open")] = replace(
    BUILTIN_PRESETS[("s10", "open")], device="s10_mfsk")


def gyro_frequency(f_acoustic: float, profile: DeviceProfile) -> Optional[float]:
    """Acoustic-to-gyro frequency map: offset above band_lo, capped at the
    device ceiling. Out-of-band tones produce no response (None)."""
    if not profile.band_lo <= f_acoustic <= profile.band_hi:
        return None
    return min(f_acoustic - profile.band_lo, profile.gyro_max_freq)


def distance_to_snr(preset: DistancePreset, distance_cm: float) -> float:
    """Preset value at listed distances, linear dB interpolation between."""
    dists = np.array([d for d, _ in preset.entries])
    snrs = np.array([s for _, s in preset.entries])
    if not dists[0] <= distance_cm <= dists[-1]:
        raise ChannelError(
            f"distance {distance_cm} cm outside preset range "
            f"[{dists[0]}, {dists[-1]}] for {preset.device}/{preset.room}")
    return float(np.interp(distance_cm, dists, snrs))


def superpose(a: Waveform, b: Waveform) -> Tuple[Waveform, int]:
    """Element-wise sum with zero-padding of the shorter input; values are
    clipped to [-1, +1] and the clip count is returned as a diagnostic."""
    if a.sample_rate != b.sample_rate:
        raise ChannelError(
            f"sample-rate mismatch: {a.sample_rate} vs {b.sample_rate}")
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    total = np.empty(len(a))
    np.add(a.samples[:m], b.samples, out=total[:m])
    total[m:] = a.samples[m:]
    clipped = int(np.count_nonzero(total > 1.0)) + int(np.count_nonzero(total < -1.0))
    if clipped:
        np.clip(total, -1.0, 1.0, out=total)
    return Waveform(total, a.sample_rate), clipped


def _complex_shift(x: np.ndarray, freq: float, rate: float) -> np.ndarray:
    return x * np.exp(2j * np.pi * freq * np.arange(len(x)) / rate)


@lru_cache(maxsize=32)
def _lowpass_taps(numtaps: int, cutoff: float) -> np.ndarray:
    """firwin low-pass at the gyro rate, designed once and shared read-only."""
    taps = sps.firwin(numtaps, cutoff, fs=DEFAULT_GYRO_RATE)
    taps.flags.writeable = False
    return taps


# rows of `down` input samples per matrix product in _downconvert: bounds
# its scratch to this many rows of tap-matrix columns, whatever the input
DECIMATE_BLOCK_ROWS = 4096


@lru_cache(maxsize=8)
def _shifted_lowpass(fs: int, f_center: float):
    """resample_poly's own fs -> gyro-rate low-pass h, with its n_pre_pad
    leading zeros, modulated to g[j] = h[j]*exp(+2*pi*i*f_center*j/(fs*up))
    and laid out for _downconvert's polyphase product.

    Output p = up*a + b of upfirdn(g, x, up, down) is
    sum_t g[up*t + s] * x[down*a + c - t], where b*down = up*c + s. With x
    cut into rows x[down*q + col], col < down, t = c + down*k - col puts
    row a - k against tap column k. Returns the read-only (down, ncols) tap
    matrix, real and imaginary column of each k side by side; the groups
    (b, k0, nk, col0), whose k = k0 + i reads columns col0 + 2*i and
    col0 + 2*i + 1; up; down; resample_poly's leading output skip; and the
    read-only h itself, for _tones_downconvert."""
    ratio = Fraction(DEFAULT_GYRO_RATE, fs)
    up, down = ratio.numerator, ratio.denominator
    half_len = 10 * max(up, down)
    n_pre_pad = down - half_len % down
    h = sps.firwin(2 * half_len + 1, 1.0 / max(up, down), window=("kaiser", 5.0)) * up
    h = np.concatenate([np.zeros(n_pre_pad), h])
    h.flags.writeable = False
    # phases in whole cycles modulo one, so long inputs keep their precision
    g = h * np.exp(2j * np.pi * (f_center * np.arange(len(h)) % (fs * up)) / (fs * up))
    col = np.arange(down)[:, None]
    columns, groups, col0 = [], [], 0
    for b in range(up):
        c, s = divmod(b * down, up)
        # the taps g[up*t + s] past the leading zeros
        t_lo, t_hi = -(-(n_pre_pad - s) // up), (len(g) - 1 - s) // up
        k0 = -(-(t_lo - c) // down)
        nk = (t_hi - c + down - 1) // down - k0 + 1
        t = c + down * np.arange(k0, k0 + nk)[None, :] - col
        inside = (t >= t_lo) & (t <= t_hi)
        block = np.where(inside, g[up * np.clip(t, t_lo, t_hi) + s], 0.0)
        groups.append((b, k0, nk, col0))
        columns.append(np.stack([block.real, block.imag], axis=2).reshape(down, 2 * nk))
        col0 += 2 * nk
    taps = np.concatenate(columns, axis=1)
    taps.flags.writeable = False
    return taps, tuple(groups), up, down, (half_len + n_pre_pad) // down, h


def _downconvert(x: np.ndarray, fs: int, f_center: float) -> np.ndarray:
    """resample_poly(x * exp(-2*pi*i*f_center*n/fs), up, down) from fs to the
    gyro rate without the input-rate mixer: blocks of rows of `down` input
    samples, viewed in place, times _shifted_lowpass's tap matrix, then the
    product's columns added at their row shifts. Output p is then
    multiplied by exp(-2*pi*i*f_center*p/gyro rate)."""
    taps, groups, up, down, skip, _ = _shifted_lowpass(fs, f_center)
    x = np.ascontiguousarray(x, dtype=np.float64)
    n_out = -(-len(x) * up // down)  # resample_poly's length
    full = len(x) // down
    blocks = [(q0, x[q0 * down:min(q0 + DECIMATE_BLOCK_ROWS, full) * down].reshape(-1, down))
              for q0 in range(0, full, DECIMATE_BLOCK_ROWS)]
    if len(x) > full * down:
        last = np.zeros((1, down))
        last[0, :len(x) - full * down] = x[full * down:]
        blocks.append((full, last))
    z = np.zeros(n_out, dtype=np.complex128)
    pairs = z.view(np.float64).reshape(n_out, 2)
    for q0, rows in blocks:
        prod = rows @ taps
        for b, k0, nk, col0 in groups:
            for i in range(nk):
                # row q feeds output p = up*(q + k0 + i) + b, at z[p - skip]
                off = up * (k0 + i) + b - skip
                lo = max(q0, -(off // up))
                hi = min(q0 + len(rows), (n_out - 1 - off) // up + 1)
                if lo < hi:
                    pairs[up * lo + off:up * (hi - 1) + off + 1:up] += \
                        prod[lo - q0:hi - q0, col0 + 2 * i:col0 + 2 * i + 2]
    p = np.arange(skip, skip + n_out)
    z *= np.exp(-2j * np.pi * (f_center * p % DEFAULT_GYRO_RATE) / DEFAULT_GYRO_RATE)
    return z


def _tones_downconvert(w: Waveform, pad: int, f_center: float) -> np.ndarray:
    """_downconvert of w's samples between pad zeros at each end, in closed
    form from w's tone segments. The decimator is linear, and a segment
    A*sin(2*pi*(phi + f*k/fs)) from input sample t0 on is, after the mixer,
    the sum over sign = +-1 of sign*A/2i * exp(2*pi*i*(sign*(phi - f*t0/fs)
    + nu*t)) at input sample t, nu = (sign*f - f_center)/fs. Output
    P = p + skip = up*a + b reads Q = down*a + c of tap branch s, where
    (c, s) = divmod(b*down, up), as sum_m h[up*m + s] * x[Q - m]. On one
    segment that is exp(2*pi*i*nu*Q) * (G[hi] - G[lo]): G[k] = sum_{m<k}
    h[up*m + s] * exp(-2*pi*i*nu*m) is one cumulative sum per tone, sign and
    branch, and [lo, hi) the taps that overlap the segment."""
    fs = w.sample_rate
    _, _, up, down, skip, h = _shifted_lowpass(fs, f_center)
    n_out = -(-(len(w) + 2 * pad) * up // down)  # resample_poly's length
    n_taps = -(-len(h) // up)
    branches = np.pad(h, (0, up * n_taps - len(h))).reshape(n_taps, up).T
    fc = Fraction(f_center)
    by_tone = {}
    for t in w.tones:
        if t.length and t.amplitude:
            by_tone.setdefault(t.freq, []).append(t)
    index, value = [], []
    for freq, tones in by_tone.items():
        t0 = pad + np.array([t.start for t in tones])
        length = np.array([t.length for t in tones])
        amplitude = np.array([t.amplitude for t in tones])
        # phi - f*t0/fs in cycles, each term reduced exactly
        offset = (np.array([float(t.phase % 1) for t in tones])
                  - _cycles(Fraction(freq) / fs % 1, t0))
        for sign in (1, -1):
            nu = (sign * Fraction(freq) - fc) / fs
            g = np.zeros((up, n_taps + 1), dtype=np.complex128)
            np.cumsum(branches * np.exp(-2j * np.pi * _cycles(nu % 1, np.arange(n_taps))),
                      axis=1, out=g[:, 1:])
            for b in range(up):
                c, s = divmod(b * down, up)
                # a from Q = t0 until the last tap passes the segment's end
                a_lo = np.maximum(-((c - t0) // down), -((b - skip) // up))
                a_hi = np.minimum(-((c + 1 - t0 - length - n_taps) // down),
                                  -((b - skip - n_out) // up))
                count = np.maximum(a_hi - a_lo, 0)
                seg = np.repeat(np.arange(len(tones)), count)
                a = np.arange(len(seg)) + np.repeat(a_lo - (np.cumsum(count) - count), count)
                q = down * a + c - t0[seg]
                part = (g[s, np.minimum(q + 1, n_taps)]
                        - g[s, np.clip(q + 1 - length[seg], 0, n_taps)])
                start = sign * offset + float(nu * c % 1)
                part *= (sign * amplitude / 2j)[seg] * np.exp(
                    2j * np.pi * _cycles(nu * down % 1, a, start[seg]))
                index.append(up * a + b - skip)
                value.append(part)
    if not index:
        return np.zeros(n_out, dtype=np.complex128)
    index, value = np.concatenate(index), np.concatenate(value)
    return (np.bincount(index, value.real, n_out)
            + 1j * np.bincount(index, value.imag, n_out))


def _translate(w: Waveform, profile: DeviceProfile) -> np.ndarray:
    """In-band acoustic content -> unit-weight gyro-domain signal (acoustic
    amplitude units; caller scales by response_amplitude and axis weights)."""
    fs = w.sample_rate
    if fs < 2 * profile.band_hi:
        raise ChannelError(
            f"waveform rate {fs} Hz cannot carry the {profile.band_hi} Hz band")
    pad = int(round(PAD_SECONDS * fs))
    f_center = 0.5 * (profile.band_lo + profile.band_hi)
    half_bw = 0.5 * (profile.band_hi - profile.band_lo)
    if w.tones is not None:
        z = _tones_downconvert(w, pad, f_center)
    else:
        z = _downconvert(np.concatenate([np.zeros(pad), w.samples, np.zeros(pad)]),
                         fs, f_center)

    # sharp band selection at the gyro rate: keep [-half_bw, +half_bw]
    z = sps.fftconvolve(z, _lowpass_taps(1001, half_bw + 2.0), mode="same")
    y = _complex_shift(z, f_center - profile.band_lo, DEFAULT_GYRO_RATE)

    # response ceiling: offsets above gyro_max_freq fold onto the ceiling
    bw = profile.band_hi - profile.band_lo
    gmax = profile.gyro_max_freq
    if bw > gmax:
        u = _complex_shift(y, -gmax / 2.0, DEFAULT_GYRO_RATE)
        lp = _lowpass_taps(801, gmax / 2.0 + 1.0)
        low = _complex_shift(sps.fftconvolve(u, lp, mode="same"), gmax / 2.0,
                             DEFAULT_GYRO_RATE)
        high = y - low
        y = low + np.abs(high) * np.exp(
            2j * np.pi * gmax * np.arange(len(y)) / DEFAULT_GYRO_RATE)

    return np.real(_saturate(y))


# phase-multiplication factor for the overloaded resonator response; high
# enough to smear the overload energy across the whole gyro-domain band
OVERLOAD_PHASE_SPREAD = 16


# once driven past the critical level a high-Q resonator stays disturbed
# for roughly its ring-down time (seconds)
OVERLOAD_HOLD_SECONDS = 0.1


def _saturate(y: np.ndarray) -> np.ndarray:
    """Overload response: a constant-envelope drive below the critical level
    passes untouched; past it the resonator loses phase coherence, modelled
    as an amplitude-limited, phase-multiplied (wideband) output that holds
    for the ring-down time."""
    env = np.abs(y)
    hold = max(int(round(OVERLOAD_HOLD_SECONDS * DEFAULT_GYRO_RATE)), 1)
    env = ndimage.maximum_filter1d(env, size=hold, mode="nearest")
    over = env > SATURATION_LEVEL
    if not np.any(over):
        return y
    chaotic = SATURATION_LEVEL * np.exp(1j * OVERLOAD_PHASE_SPREAD * np.angle(y))
    return np.where(over, chaotic, y)


def _shaped_noise(n: int, rng: np.random.Generator,
                  profile: DeviceProfile) -> np.ndarray:
    """Unit-floor Gaussian noise, (n, 3); the gyro resonance band carries
    INBAND_NOISE_BOOST times the out-of-band power density."""
    white = rng.standard_normal((n, 3))
    lp = _lowpass_taps(301, profile.gyro_max_freq + 10.0)
    extra = sps.fftconvolve(rng.standard_normal((n, 3)), lp[:, None], mode="same", axes=0)
    return white + np.sqrt(INBAND_NOISE_BOOST - 1.0) * extra


def _calibrate_sigma(base: np.ndarray, unit_noise: np.ndarray,
                     profile: DeviceProfile, snr_db: float) -> float:
    """The noise scale at which the tone-SNR estimator (best axis, like the
    receiver's) reads snr_db on the weighted axes of base plus sigma*noise,
    searched by _log_crossing on [1e-9, 1e4] times the clean rms. The
    estimator is not monotonic in sigma: the result is a crossing, reading
    above snr_db just below it and not above it just over it."""
    axes = [ax for ax in range(3) if profile.axis_weights[ax] > 0]
    clean0 = profile.response_amplitude * base * profile.axis_weights[axes[0]]
    rms = float(np.sqrt(np.mean(clean0 ** 2)))
    if rms <= 1e-12:
        # silence in, noise out: anchor the level to a nominal 20%-volume tone
        ref = 0.2 * profile.response_amplitude * max(profile.axis_weights)
        return ref / 10 ** (snr_db / 20.0)

    # the estimator's spectra are linear in their input, so on each axis
    # |c + sigma*n|^2 = A + sigma*(B + sigma*C) for the clean spectra c and
    # the unit-noise spectra n. A, B and C are kept on the tone bins and the
    # noise-floor bins only, laid out (bin, frame) so that the floor bins are
    # one contiguous block.
    gbins = tuple(bin_index(gyro_frequency(f, profile), TONE_FFT_SIZE, DEFAULT_GYRO_RATE)
                  for f in profile.fsk_pair)
    keep = np.concatenate([gbins, _noise_bins(TONE_FFT_SIZE // 2 + 1, gbins)])
    c = frame_spectra(base, TONE_FFT_SIZE)[:, keep].T
    c2 = np.abs(c) ** 2
    quads = []
    for ax in axes:
        n = frame_spectra(unit_noise[:, ax], TONE_FFT_SIZE)[:, keep].T
        gain = profile.response_amplitude * profile.axis_weights[ax]
        quads.append((gain ** 2 * c2, 2 * gain * (c.conj() * n).real,
                      np.abs(n) ** 2, np.empty(c.shape)))

    def measured(sigma: float) -> float:
        for quad_a, quad_b, quad_c, power in quads:
            np.multiply(quad_c, sigma, out=power)
            np.add(power, quad_b, out=power)
            np.multiply(power, sigma, out=power)
            np.add(power, quad_a, out=power)
        return max(active_snr_db(power[:len(gbins)].max(axis=0),
                                 _median_inplace(power[len(gbins):]))
                   for *_, power in quads)

    lo, hi = rms * 1e-9, rms * 1e4
    ceiling = measured(lo)
    if ceiling < snr_db:
        warnings.warn(
            f"requested SNR {snr_db} dB above the noiseless ceiling "
            f"({ceiling:.1f} dB); output is leakage-limited")
        return lo
    floor_db = measured(hi)
    if floor_db > snr_db:
        warnings.warn(
            f"requested SNR {snr_db} dB below the estimator floor "
            f"({floor_db:.1f} dB); returning the noisiest channel")
        return hi

    return _log_crossing(lambda sigma: measured(sigma) - snr_db, lo, hi,
                         ceiling - snr_db, floor_db - snr_db)


# log-sigma width of the bracket at which the sigma search stops
SIGMA_LOG_TOL = 1e-12


def _log_crossing(excess, lo: float, hi: float, excess_lo: float,
                  excess_hi: float) -> float:
    """A sigma where excess turns from above 0 to not above it, given its
    values excess_lo >= 0 at lo and excess_hi <= 0 at hi: Illinois regula
    falsi in log sigma until the bracket is SIGMA_LOG_TOL wide, then the
    bracket's middle. A step bisects once the evaluations left would not
    cover a bisection to that width, so no search takes more than twice
    bisection's count."""
    a, b, fa, fb = math.log(lo), math.log(hi), excess_lo, excess_hi
    steps_left = 2 * math.ceil(math.log2((b - a) / SIGMA_LOG_TOL))
    moved = 0  # +1 after a step that moved a, -1 after one that moved b
    while b - a > SIGMA_LOG_TOL:
        x = 0.5 * (a + b)
        # fa >= 0 >= fb, equal only if both are 0
        if fa > fb and steps_left > math.ceil(math.log2((b - a) / SIGMA_LOG_TOL)):
            secant = a + (b - a) * fa / (fa - fb)
            if a < secant < b:
                x = secant
        steps_left -= 1
        fx = excess(math.exp(x))
        if fx > 0:
            a, fa = x, fx
            # Illinois: an end left in place twice running has its value halved
            if moved > 0:
                fb *= 0.5
            moved = 1
        else:
            b, fb = x, fx
            if moved < 0:
                fa *= 0.5
            moved = -1
    return math.exp(0.5 * (a + b))


def apply_channel(w: Waveform, profile: DeviceProfile,
                  cond: ChannelCondition) -> GyroTrace:
    """Simulate the full acoustic -> angular-velocity path. Deterministic for
    identical (waveform, profile, condition). The noise level is set by w as
    sent; the condition's defences act only on what reaches the gyroscope."""
    if len(w) == 0:
        raise ChannelError("cannot simulate an empty waveform")
    received = w
    if cond.filter_cutoff is not None:
        received = lowpass(received, cond.filter_cutoff)
    if cond.jammer is not None:
        received, _clipped = superpose(received, cond.jammer)

    base = _translate(received, profile)
    weights = np.asarray(profile.axis_weights)
    data = profile.response_amplitude * base[:, None] * weights[None, :]

    if cond.snr_db is not None or cond.noise_rms is not None:
        unit_noise = _shaped_noise(len(base), np.random.default_rng(cond.noise_seed),
                                   profile)
        if cond.noise_rms is not None:
            sigma = float(cond.noise_rms)
        else:
            # a longer jammer lengthens the trace; the sent waveform's
            # silence pads it to match
            sent = base if received is w else _translate(w.padded(len(received)), profile)
            sigma = _calibrate_sigma(sent, unit_noise, profile, float(cond.snr_db))
        data = data + sigma * unit_noise
    return GyroTrace.from_axes(data + np.asarray(DEFAULT_AXIS_BIAS)[None, :])


# ---------------------------------------------------------------------------
# serialization

def write_trace_csv(trace: GyroTrace, destination) -> None:
    path = Path(destination)
    with path.open("w", newline="") as fp:
        fp.write("t_us,x,y,z\n")
        for t, (x, y, z) in zip(trace.t_us, trace.data):
            fp.write(f"{int(t)},{float(x)!r},{float(y)!r},{float(z)!r}\n")


def read_trace_csv(source) -> GyroTrace:
    path = Path(source)
    t_list, rows = [], []
    with path.open(newline="") as fp:
        reader = csv.DictReader(fp)
        for row in reader:
            t_list.append(int(row["t_us"]))
            rows.append((float(row["x"]), float(row["y"]), float(row["z"])))
    t = np.array(t_list, dtype=np.int64)
    if len(t) < 2:
        raise ChannelError(f"{path}: cannot infer sample rate from <2 rows")
    sample_rate = int(round(1e6 / float(np.median(np.diff(t)))))
    return GyroTrace(t_us=t, data=np.array(rows), sample_rate=sample_rate)


def load_profile(source) -> DeviceProfile:
    """One JSON document per device, keyed by the profile field names (the
    inverse of dataclasses.asdict)."""
    with Path(source).open() as fp:
        return from_dict(DeviceProfile, json.load(fp))


def load_profiles(directory) -> Dict[str, DeviceProfile]:
    out = dict(BUILTIN_PROFILES)
    for path in sorted(Path(directory).glob("*.json")):
        p = load_profile(path)
        out[p.name] = p
    return out


def get_profile(name: str, profile_dir=None) -> DeviceProfile:
    table = load_profiles(profile_dir) if profile_dir else BUILTIN_PROFILES
    try:
        return table[name]
    except KeyError:
        raise ChannelError(
            f"unknown profile {name!r}; available: {', '.join(sorted(table))}")


def get_preset(device: str, room: str) -> DistancePreset:
    try:
        return BUILTIN_PRESETS[(device, room)]
    except KeyError:
        rooms = sorted({r for _, r in BUILTIN_PRESETS})
        devs = sorted({d for d, _ in BUILTIN_PRESETS})
        raise ChannelError(
            f"no preset for device={device!r} room={room!r}; "
            f"devices: {', '.join(devs)}; rooms: {', '.join(rooms)}")
