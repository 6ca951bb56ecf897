"""Benchmark workloads: inputs made from the seed, one timed operation per
step, and the correctness checks on what the package returns.

A ``ber_*`` operation is one simulated frame, one ``harness.run_point``
call with ``n_frames=1``. Frames visit the sweep's points in round-robin
order and runs stop only at the end of a round, so every run sees the same
mix of devices and distances. An ``rx_long`` operation decodes one of three
prepared traces (10, 40 or 160 frames), in rotation.
"""
from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from gyromodem import channel, framing, harness, modem_rx, modem_tx
from gyromodem.countermeasure import JammerConfig
from gyromodem.sigcore import GyroTrace

from tracing import matched_frames

BIT_TIME = 0.7  # seconds per bit, as in criteria 3, 5, 7 and 9
OPEN_DISTANCES = (0.0, 50.0, 100.0, 150.0, 200.0)
NARROW_DISTANCES = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0)
# criterion 3: the points expected error-free; the rest sit at <= 10 dB
OPEN_ERROR_FREE = {"oneplus7": (0.0, 50.0, 100.0),
                   "s9": OPEN_DISTANCES,
                   "s10": (0.0, 50.0, 100.0, 150.0)}
JAMMED_SNR_DB = 30.0
JAMMED_MIN_BER = 0.20
RX_SNR_DB = 25.0
RX_GAP = 0.5
RX_SIZES = (10, 40, 160)
MIN_ROUND_FRAMES = 5
WARMUP_SEED = 0
RX_QUARTER = 40  # one apply_channel call of 160 frames peaks at ~4.5 GB


def sub_seed(seed: int, *parts: int) -> int:
    """A 31-bit seed for one input, mixed from the run seed and its position."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0] >> 1)


@dataclass
class Outcome:
    """What one timed operation produced."""

    frames: int
    failed: int
    seconds: float = 0.0
    row: Optional[harness.BerRow] = None
    point: int = 0
    payloads: Tuple = ()
    error: str = ""


@dataclass
class Point:
    label: str
    profile: channel.DeviceProfile
    fsk: modem_tx.FskConfig
    rx: modem_rx.DemodConfig
    snr_db: float
    index: int
    error_free: bool
    jammer: Optional[JammerConfig] = None


def _sweep(device: str, room: str, distances, error_free, modulation="bfsk",
           order=2) -> List[Point]:
    cfg = harness.ExperimentConfig(profile=device, modulation=modulation, order=order,
                                   bit_time=BIT_TIME, room=room, distances_cm=distances)
    profile = channel.get_profile(device)
    preset = channel.get_preset(device, room)
    fsk = harness.fsk_config_for(profile, cfg)
    rx = harness.demod_config_for(profile, fsk)
    return [Point(f"{device}@{d:g}cm", profile, fsk, rx,
                  channel.distance_to_snr(preset, d), i, d in error_free)
            for i, d in enumerate(distances)]


def _jammed_link() -> List[Point]:
    """Criterion 7: s10 at 30 dB, jammer over the whole resonance band at the
    carrier's volume."""
    profile = channel.get_profile("s10")
    fsk = modem_tx.bfsk_config(*profile.fsk_pair, BIT_TIME)
    jammer = JammerConfig(f_min=profile.band_lo, f_max=profile.band_hi, T=1.0,
                          max_volume=fsk.amplitude, volume=fsk.amplitude)
    return [Point(f"s10@{JAMMED_SNR_DB:g}dB+jammer", profile, fsk,
                  harness.demod_config_for(profile, fsk), JAMMED_SNR_DB, 0,
                  False, jammer)]


class BerWorkload:
    """Frames of a seeded BER sweep through ``harness.run_point``."""

    setup_repeats = 3

    def __init__(self, build_points):
        self._build_points = build_points
        self.points: List[Point] = []
        self.seed = 0

    def setup(self, seed: int) -> None:
        """Build the sweep's configs and warm every profile with one frame
        outside the measured sequence. The warm-up frames are the same for
        every seed: an M-FSK frame costs 360 or 530 ms depending on its
        content, and set-up time should not depend on the seed."""
        self.seed = seed
        self.points = self._build_points()
        warmed = set()
        for p in self.points:
            if p.profile.name not in warmed:
                warmed.add(p.profile.name)
                self._frame(p, sub_seed(WARMUP_SEED, 1 << 30, p.index))

    @property
    def round_size(self) -> int:
        """Every point once, repeated up to MIN_ROUND_FRAMES frames."""
        n = len(self.points)
        return n * -(-MIN_ROUND_FRAMES // n)

    @property
    def digest_frames(self) -> int:
        return 2 * self.round_size

    def op_frames(self, i: int) -> int:
        return 1

    def sent(self, i: int):
        return None  # run_point draws the payload; a tracer sees it sent

    def _frame(self, p: Point, frame_seed: int) -> harness.BerRow:
        return harness.run_point(p.profile, p.fsk, p.rx, p.snr_db, 1, frame_seed,
                                 p.index, jammer=p.jammer)

    def op(self, i: int) -> Outcome:
        k = i % len(self.points)
        p = self.points[k]
        row = self._frame(p, sub_seed(self.seed, i))
        bad = p.error_free and (row.ber > 0.0 or row.frame_loss > 0.0)
        return Outcome(frames=1, failed=int(bad), row=row, point=k,
                       error=f"{p.label}: ber {row.ber:.3f}, loss {row.frame_loss:.0f}"
                       if bad else "")

    def table(self, outcomes: List[Outcome]) -> List[str]:
        """BER table over the given frames: one line per point."""
        agg = {}
        for o in outcomes:
            if o.row is None:
                continue
            a = agg.setdefault(o.point, [0, 0, 0, 0])
            a[0] += 1
            a[1] += o.row.frames_synced
            a[2] += round(o.row.ber * framing.PAYLOAD_BITS * o.row.frames_synced)
            a[3] += round(o.row.frame_loss)
        return [f"{self.points[k].label},{self.points[k].snr_db:g},"
                f"frames={a[0]},synced={a[1]},wrong_bits={a[2]},lost={a[3]}"
                for k, a in sorted(agg.items())]

    def digest_lines(self, outcomes: List[Outcome]) -> List[str]:
        return self.table(outcomes[:self.digest_frames])

    def aggregate_check(self, outcomes: List[Outcome]) -> Tuple[bool, str]:
        return True, ""


class JammedWorkload(BerWorkload):
    def aggregate_check(self, outcomes):
        """The jammer must leave more than JAMMED_MIN_BER of the payload bits
        undelivered. A frame that never syncs delivers none of its bits, so
        it counts as all-wrong here; criterion 7's synced-only BER is shown
        beside it."""
        rows = [o.row for o in outcomes if o.row is not None]
        bits = framing.PAYLOAD_BITS
        wrong = sum(r.ber * bits * r.frames_synced for r in rows)
        synced = sum(r.frames_synced for r in rows)
        ber = (wrong + bits * (len(rows) - synced)) / (bits * len(rows)) if rows else 0.0
        synced_ber = wrong / (bits * synced) if synced else float("nan")
        ok = ber > JAMMED_MIN_BER
        return ok, (f"jammed BER {ber:.3f} (lost frames count as wrong; needs > "
                    f"{JAMMED_MIN_BER}); synced-only BER {synced_ber:.3f} over "
                    f"{synced}/{len(rows)} synced frames")


@dataclass
class RxTrace:
    trace: GyroTrace
    sent: List[Tuple[int, ...]]


class RxLongWorkload:
    """Decode long prepared B-FSK traces; the channel runs only in set-up."""

    setup_repeats = 1  # ~25 s of channel simulation; once per run
    round_size = len(RX_SIZES)
    digest_frames = len(RX_SIZES)

    def __init__(self):
        self.traces: List[RxTrace] = []
        self.rx = None

    def _simulate(self, seed: int, part: int, n_frames: int, profile, fsk) -> RxTrace:
        rng = np.random.default_rng(sub_seed(seed, 2, part))
        sent = [tuple(int(b) for b in rng.integers(0, 2, framing.PAYLOAD_BITS))
                for _ in range(n_frames)]
        wave = modem_tx.transmit_frames(sent, fsk, gap=RX_GAP)
        cond = channel.ChannelCondition(snr_db=RX_SNR_DB, noise_seed=sub_seed(seed, 3, part))
        return RxTrace(channel.apply_channel(wave, profile, cond), sent)

    def setup(self, seed: int) -> None:
        """Build the 10- and 40-frame traces with one apply_channel call
        each; the 160-frame trace joins the 40-frame one and three more
        40-frame simulations, with RX_GAP between all frames."""
        profile = channel.get_profile("s10")
        fsk = modem_tx.bfsk_config(*profile.fsk_pair, BIT_TIME)
        self.rx = harness.demod_config_for(profile, fsk)
        quarters = [self._simulate(seed, 1 + q, RX_QUARTER, profile, fsk)
                    for q in range(RX_SIZES[2] // RX_QUARTER)]
        # built last, so a tracer's record of the last frames sent matches
        # the warm-up decode below
        short = self._simulate(seed, 0, RX_SIZES[0], profile, fsk)
        rate = quarters[0].trace.sample_rate
        # each simulation carries PAD_SECONDS of silence at both ends; cut
        # the joints back to the RX_GAP every other frame boundary has
        cut = int(round((channel.PAD_SECONDS - RX_GAP / 2) * rate))
        parts = [q.trace.data for q in quarters]
        parts = [parts[0][:-cut], *[p[cut:-cut] for p in parts[1:-1]], parts[-1][cut:]]
        joined = GyroTrace.from_axes(np.concatenate(parts), rate)
        self.traces = [short, quarters[0],
                       RxTrace(joined, [p for q in quarters for p in q.sent])]
        self._decode(self.traces[0])  # let lazy set-up finish before timing

    def op_frames(self, i: int) -> int:
        return len(self.sent(i))

    def sent(self, i: int):
        return self.traces[i % len(self.traces)].sent

    def _decode(self, t: RxTrace) -> List[Tuple[int, ...]]:
        report = modem_rx.demodulate_stream(t.trace, self.rx)
        return [tuple(f.payload) for f in report.frames]

    def op(self, i: int) -> Outcome:
        t = self.traces[i % len(self.traces)]
        decoded = self._decode(t)
        n = len(t.sent)
        matched = matched_frames(t.sent, decoded)
        failed = 0 if decoded == t.sent else max(n - matched, 1)
        return Outcome(frames=n, failed=failed, payloads=tuple(decoded),
                       error=f"{n}-frame trace: {len(decoded)} decoded, {matched} "
                             f"as sent" if failed else "")

    def digest_lines(self, outcomes: List[Outcome]) -> List[str]:
        return ["".join(map(str, p)) for o in outcomes[:self.digest_frames]
                for p in o.payloads]

    def aggregate_check(self, outcomes):
        return True, ""

    def rx_seconds(self, outcomes: List[Outcome]) -> dict:
        """Median decode time per trace length."""
        by_size = {}
        for o in outcomes:
            by_size.setdefault(o.frames, []).append(o.seconds)
        return {f"rx_s_{n}f": float(np.median(v)) for n, v in sorted(by_size.items())}


def make(name: str):
    if name == "ber_bfsk_open":
        return BerWorkload(lambda: [
            p for dev in ("oneplus7", "s9", "s10")
            for p in _sweep(dev, "open", OPEN_DISTANCES, OPEN_ERROR_FREE[dev])])
    if name == "ber_mfsk32_narrow":
        return BerWorkload(lambda: _sweep(
            "s10_mfsk", "narrow", NARROW_DISTANCES, NARROW_DISTANCES,
            modulation="mfsk", order=32))
    if name == "ber_jammed":
        return JammedWorkload(_jammed_link)
    if name == "rx_long":
        return RxLongWorkload()
    raise KeyError(name)


def digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def quiet_package_warnings() -> None:
    """The channel reports leakage-limited SNR requests as UserWarnings; the
    traced run counts them, the untraced run keeps stderr clean."""
    warnings.filterwarnings("ignore", category=UserWarning, module=r"gyromodem\.")
