"""Ultrasonic speaker-to-gyroscope covert channel: FSK modem, channel
simulator, calibration sweep, countermeasures, and experiment harness."""

from .sigcore import GyroTrace, Waveform, generate_chirp, generate_sine, moving_average
from .framing import (FRAME_BITS, PAYLOAD_BITS, SYNC_PATTERN, compute_parity,
                      decode_frame, encode_frame, segment_payloads)
from .modem_tx import (FskConfig, export_wav, import_wav, modulate,
                       transmit_frames, uniform_tones)
from .channel import (BUILTIN_PROFILES, BUILTIN_PRESETS, ChannelCondition,
                      DeviceProfile, apply_channel, distance_to_snr,
                      gyro_frequency, superpose)
from .modem_rx import DemodConfig, RxReport, demodulate_stream, measure_snr
from .calibration import SweepResult, find_resonance_band
from .countermeasure import JammerConfig, jam_waveform, lowpass
from .harness import (BerTable, ExperimentConfig, emit_spectrogram,
                      run_ber_experiment)

__version__ = "0.1.0"
