"""Streaming receiver: side-info reassembly, decode-path routing, playout.

Events (received packets or loss markers) arrive strictly in frame order.
Every received packet refreshes the side-info cache with all the blocks it
carries, including backups for earlier frames. A frame is emitted once the
newest event index is at least `playout_delay` ahead of it, at which point
its decode path is final:

  entropy   packet received and payload decoded against the frame's own
            side info (conditioning never spans neighbouring frames, so a
            received frame decodes the same bytes under any loss pattern)
  plc_high  packet lost but some copy of its side info was cached; output
            is the summary-driven prediction plus the high-confidence token
  plc_low   nothing cached; output decays the previous emitted latent and
            adds the low-confidence token

A packet whose rate index or side info the model cannot use counts as
lost. Every frame always yields output, in order and gap-free.

A packet keeps its entropy decode, so later runs over the same packet
object reuse it; see `_entropy_code`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .hyperprior import CodecModel, SideInfo, apply_confidence, rvq_decode
from .packets import FecConfig, Packet
from .rangecoder import DecodeFailure, _decode_symbols, frame_tables
from .transform import Q_NUM, LatentCode

PATH_ENTROPY = "entropy"
PATH_PLC_HIGH = "plc_high"
PATH_PLC_LOW = "plc_low"


class ProtocolError(Exception):
    """Receiver contract violation (events out of frame order)."""


@dataclass(frozen=True)
class LostPacket:
    """Loss marker produced by the channel for a dropped frame."""

    frame_index: int


@dataclass(frozen=True)
class ReceiverConfig:
    fec: FecConfig
    playout_delay: int | None = None

    def __post_init__(self):
        if self.playout_delay is not None and self.playout_delay < 0:
            raise ValueError("playout delay must be non-negative")

    @property
    def delay(self) -> int:
        return self.fec.max_offset if self.playout_delay is None else self.playout_delay


@dataclass(frozen=True)
class DecodedFrame:
    code: LatentCode
    path: str


@dataclass(frozen=True)
class ReceiverReport:
    frames: int
    entropy_count: int
    plc_high_count: int
    plc_low_count: int
    z_recovery_rate: float


def _entropy_code(
    model: CodecModel, packet: Packet, si: SideInfo | None
) -> LatentCode | None:
    """The packet's payload decoded under side info `si`; None when it fails
    its guard.

    The packet keeps the result as `(model, si, code)`, and a later call
    with the very same model and side-info objects returns the kept code:
    then the payload and the tables are the same, so the decode is too. A
    packet without its own offset-0 block takes its side info from whichever
    backup arrived first, so it decodes again whenever that copy differs;
    `read_container` refuses such packets, and `build_packet` never makes
    them when side info is on. Kept codes are read-only, so no run can
    change another's output.
    """
    kept = getattr(packet, "_decoded", None)
    if kept is not None and kept[0] is model and kept[1] is si:
        return kept[2]
    tables, step = frame_tables(model, si, packet.q_lambda)
    try:
        symbols = _decode_symbols(packet.payload, tables, model.d_y)
    except DecodeFailure:
        code = None
    else:
        # the code `dequantize` gives, without its QuantizedLatent: every
        # symbol converts to float64 exactly
        coeffs = np.array(symbols, dtype=np.float64) * step
        coeffs.flags.writeable = False
        code = LatentCode(coeffs, packet.frame_index)
    object.__setattr__(packet, "_decoded", (model, si, code))
    return code


class Receiver:
    """One per stream; strictly sequential. See the module docstring."""

    def __init__(self, model: CodecModel, config: ReceiverConfig):
        self.model = model
        self._delay = config.delay
        self._cache: dict[int, SideInfo] = {}
        # one entry per event not yet emitted, from frame _next_emit on;
        # None for a loss or an unusable packet
        self._pending: deque[Packet | None] = deque()
        self._next_event = 0
        self._next_emit = 0
        self._last_code = np.zeros(model.d_y)
        # without codebooks, no side info is usable, not even zero stages
        self._max_stages = -1 if model.codebooks is None else model.codebooks.n_stages
        self._counts = {PATH_ENTROPY: 0, PATH_PLC_HIGH: 0, PATH_PLC_LOW: 0}

    def ingest(self, event: Packet | LostPacket) -> list[DecodedFrame]:
        """Process one in-order event; returns frames that became emittable."""
        t = event.frame_index
        if t != self._next_event:
            raise ProtocolError(
                f"out-of-order event: frame {t}, expected {self._next_event}"
            )
        self._next_event += 1
        if isinstance(event, Packet) and self._usable(event):
            for off, si in event.z_blocks:
                target = t - off
                if target < self._next_emit:
                    continue  # too late to matter; frame already emitted
                if off == 0 or target not in self._cache:
                    self._cache[target] = si
            self._pending.append(event)
        else:
            self._pending.append(None)
        emitted = []
        while self._next_emit <= t - self._delay:
            emitted.append(self._emit_next())
        return emitted

    def finalize(self) -> tuple[list[DecodedFrame], ReceiverReport]:
        """Flush frames still inside the delay window and report path counts."""
        emitted = []
        while self._pending:
            emitted.append(self._emit_next())
        counts = self._counts
        lost = counts[PATH_PLC_HIGH] + counts[PATH_PLC_LOW]
        recovery = counts[PATH_PLC_HIGH] / lost if lost else 1.0
        report = ReceiverReport(
            frames=self._next_emit,
            entropy_count=counts[PATH_ENTROPY],
            plc_high_count=counts[PATH_PLC_HIGH],
            plc_low_count=counts[PATH_PLC_LOW],
            z_recovery_rate=recovery,
        )
        return emitted, report

    def _usable(self, packet: Packet) -> bool:
        # a packet can pass its CRC and still carry a rate index or side
        # info that the model cannot decode
        if not 0 <= packet.q_lambda < Q_NUM:
            return False
        for _, si in packet.z_blocks:
            if len(si.indices) > self._max_stages:
                return False
        return True

    def _emit_next(self) -> DecodedFrame:
        model = self.model
        t = self._next_emit
        packet = self._pending.popleft()
        si = self._cache.pop(t, None)
        code = None if packet is None else _entropy_code(model, packet, si)
        if code is not None:
            path = PATH_ENTROPY
        else:  # lost, unusable, or failed its guard: conceal
            if si is not None:
                mu = np.repeat(rvq_decode(si, model.codebooks), model.block)
                y = apply_confidence(mu, True, model.tokens)
                path = PATH_PLC_HIGH
            else:
                y = apply_confidence(model.rho * self._last_code, False, model.tokens)
                path = PATH_PLC_LOW
            code = LatentCode(y, t)
        self._last_code = code.coeffs
        self._next_emit = t + 1
        self._counts[path] += 1
        return DecodedFrame(code, path)
