"""Packet-loss channel models and trace analysis.

Three trace sources: memoryless Bernoulli losses, a three-state Markov
chain with per-state loss probabilities, and recorded trace files (one
"0"/"1" token per line). All synthetic generation is driven by the
platform-stable splitmix64 stream, so (params, seed, length) fully
determines a trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .seeds import derive, uniforms

ORIGIN_BERNOULLI = "bernoulli"
ORIGIN_MARKOV3 = "markov3"
ORIGIN_FILE = "file"

_TAG_BERNOULLI = 0xBE52
_TAG_MARKOV = 0x3A2C0


@dataclass(frozen=True)
class LossTrace:
    """Per-packet loss flags (True = lost)."""

    flags: np.ndarray
    origin: str

    def __post_init__(self):
        flags = np.asarray(self.flags, dtype=bool)
        object.__setattr__(self, "flags", flags)
        if flags.size == 0:
            raise ValueError("empty trace")
        if self.origin not in (ORIGIN_BERNOULLI, ORIGIN_MARKOV3, ORIGIN_FILE):
            raise ValueError(f"unknown trace origin {self.origin!r}")

    def __len__(self) -> int:
        return int(self.flags.size)

    @property
    def loss_rate(self) -> float:
        return float(self.flags.mean())


@dataclass(frozen=True)
class Markov3Params:
    """Row-stochastic 3x3 transition matrix plus per-state loss probabilities."""

    transition: np.ndarray
    loss_probs: np.ndarray
    initial_state: int = 0

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=np.float64)
        theta = np.asarray(self.loss_probs, dtype=np.float64)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "loss_probs", theta)
        if t.shape != (3, 3):
            raise ValueError(f"transition matrix shape {t.shape}, expected (3, 3)")
        if np.any(t < 0):
            raise ValueError("negative transition probability")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition matrix rows must sum to 1")
        if theta.shape != (3,) or np.any(theta < 0) or np.any(theta > 1):
            raise ValueError("per-state loss probabilities must lie in [0, 1]")
        if self.initial_state not in (0, 1, 2):
            raise ValueError(f"initial state {self.initial_state} out of range")


def gen_bernoulli(p: float, length: int, seed: int) -> LossTrace:
    """i.i.d. losses with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"loss probability {p} out of range")
    if length < 1:
        raise ValueError("trace length must be positive")
    u = uniforms(derive(seed, _TAG_BERNOULLI), length)
    return LossTrace(u < p, ORIGIN_BERNOULLI)


def gen_markov3(params: Markov3Params, length: int, seed: int) -> LossTrace:
    """Three-state Markov losses: the chain walks the transition matrix and
    each step loses the packet with its state's probability."""
    if length < 1:
        raise ValueError("trace length must be positive")
    u = uniforms(derive(seed, _TAG_MARKOV), 2 * length)
    cum = np.cumsum(params.transition, axis=1)
    cum_rows = [tuple(row) for row in cum]
    theta = tuple(params.loss_probs)
    flags = np.empty(length, dtype=bool)
    state = params.initial_state
    for t in range(length):
        flags[t] = u[2 * t] < theta[state]
        r = u[2 * t + 1]
        row = cum_rows[state]
        state = 0 if r < row[0] else (1 if r < row[1] else 2)
    return LossTrace(flags, ORIGIN_MARKOV3)


def stationary_loss_rate(params: Markov3Params) -> float:
    """Long-run loss rate: stationary distribution dotted with loss probs.

    The chain must have exactly one closed communicating class; otherwise
    there is no unique stationary distribution and this raises.
    """
    t = params.transition
    n_comp, labels = connected_components(t > 0, directed=True, connection="strong")
    closed = []
    for c in range(n_comp):
        members = np.flatnonzero(labels == c)
        outgoing = t[np.ix_(members, np.setdiff1d(np.arange(3), members))]
        if outgoing.size == 0 or np.all(outgoing == 0):
            closed.append(members)
    if len(closed) != 1:
        raise ValueError("no unique stationary distribution")
    members = closed[0]
    sub = t[np.ix_(members, members)]
    k = members.size
    a = np.vstack([sub.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(pi @ params.loss_probs[members])


# Presets: three-state chains with exact analytic loss rates. "burst10" is
# calibrated to a 10% stationary loss rate with mean burst length 4,
# "burst30" to 30% with the same mean burst length.
PRESETS: dict[str, Markov3Params] = {
    "burst10": Markov3Params(
        np.array([[33 / 34, 1 / 34, 0.0], [0.0, 0.75, 0.25], [0.5, 0.0, 0.5]]),
        np.array([0.0, 1.0, 0.0]),
    ),
    "burst30": Markov3Params(
        np.array([[19 / 22, 3 / 22, 0.0], [0.0, 0.75, 0.25], [0.5, 0.0, 0.5]]),
        np.array([0.0, 1.0, 0.0]),
    ),
}


def load_trace(path) -> LossTrace:
    """Read a trace file: one "0" (received) or "1" (lost) per line."""
    flags = []
    with open(path, "r", encoding="ascii") as fh:
        for ln, line in enumerate(fh, start=1):
            tok = line.strip()
            if not tok:
                continue
            if tok == "0":
                flags.append(False)
            elif tok == "1":
                flags.append(True)
            else:
                raise ValueError(f"invalid token {tok!r} at line {ln}")
    if not flags:
        raise ValueError("empty trace")
    return LossTrace(np.array(flags, dtype=bool), ORIGIN_FILE)


def save_trace(path, trace: LossTrace) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for f in trace.flags:
            fh.write("1\n" if f else "0\n")


@dataclass(frozen=True)
class TraceStats:
    loss_rate: float
    burst_histogram: dict[int, int]
    max_burst: int


def trace_stats(trace: LossTrace) -> TraceStats:
    """Loss rate plus the histogram of maximal lost-run lengths."""
    flags = trace.flags
    padded = np.concatenate([[False], flags, [False]])
    starts = np.flatnonzero(~padded[:-1] & padded[1:])
    ends = np.flatnonzero(padded[:-1] & ~padded[1:])
    lengths = ends - starts
    hist: dict[int, int] = {}
    for ln in lengths:
        hist[int(ln)] = hist.get(int(ln), 0) + 1
    return TraceStats(
        loss_rate=float(flags.mean()),
        burst_histogram=dict(sorted(hist.items())),
        max_burst=int(lengths.max()) if lengths.size else 0,
    )
