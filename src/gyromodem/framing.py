"""Link-layer framing: 4-bit sync preamble, 12-bit payload, 1 parity bit."""
from __future__ import annotations

from typing import List, Sequence, Tuple

SYNC_PATTERN = (1, 0, 1, 0)
PAYLOAD_BITS = 12
FRAME_BITS = len(SYNC_PATTERN) + PAYLOAD_BITS + 1  # 17


class FrameLengthError(ValueError):
    """Bit sequence has the wrong length for this operation."""


def _check_bits(bits: Sequence[int], expected: int, what: str) -> Tuple[int, ...]:
    bits = tuple(int(b) for b in bits)
    if len(bits) != expected:
        raise FrameLengthError(f"{what} must be exactly {expected} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"{what} contains non-binary values")
    return bits


def compute_parity(payload: Sequence[int]) -> int:
    """Odd-parity bit: set so payload plus parity carries an odd ones count."""
    payload = _check_bits(payload, PAYLOAD_BITS, "payload")
    return 1 - sum(payload) % 2


def encode_frame(payload: Sequence[int]) -> Tuple[int, ...]:
    """sync || payload || parity, 17 bits total."""
    payload = _check_bits(payload, PAYLOAD_BITS, "payload")
    return SYNC_PATTERN + payload + (compute_parity(payload),)


def decode_frame(bits: Sequence[int]) -> Tuple[Tuple[int, ...], bool]:
    """Split a 17-bit frame; valid iff the sync matches and parity checks out.
    Invalid frames are still returned, never dropped."""
    bits = _check_bits(bits, FRAME_BITS, "frame")
    sync = bits[:4]
    payload = bits[4:4 + PAYLOAD_BITS]
    parity = bits[-1]
    valid = sync == SYNC_PATTERN and parity == compute_parity(payload)
    return payload, valid


def bytes_to_bits(data: bytes) -> List[int]:
    """MSB-first bit expansion."""
    out: List[int] = []
    for byte in data:
        out.extend((byte >> (7 - i)) & 1 for i in range(8))
    return out


def segment_payloads(data: bytes) -> List[Tuple[int, ...]]:
    """Pack bytes MSB-first into 12-bit payloads, zero-padding the last one.
    No length header is added; callers carry length out of band."""
    bits = bytes_to_bits(data)
    payloads: List[Tuple[int, ...]] = []
    for i in range(0, len(bits), PAYLOAD_BITS):
        group = bits[i:i + PAYLOAD_BITS]
        group += [0] * (PAYLOAD_BITS - len(group))
        payloads.append(tuple(group))
    return payloads


def int_to_payload(value: int) -> Tuple[int, ...]:
    """12-bit MSB-first payload from an integer in [0, 4096)."""
    if not 0 <= value < 1 << PAYLOAD_BITS:
        raise ValueError("payload value out of 12-bit range")
    return tuple((value >> (PAYLOAD_BITS - 1 - i)) & 1 for i in range(PAYLOAD_BITS))
