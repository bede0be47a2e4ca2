"""Per-OFDM-symbol linear model of the coded bit pipeline over GF(2).

Scrambled info bits x (one OFDM symbol's worth) pass through the
convolutional encoder, puncturer and interleaver; because every stage is
linear over GF(2) the interleaved bit vector equals C*x XOR d(state),
where the affine offset d depends only on the 6-bit encoder state at the
symbol boundary.  The matrix is assembled here directly from the
generator tap structure and the transmitter's own puncture-and-interleave
index map (``phy._symbol_gather``), not by running the encoder, so
agreement with the stage-by-stage chain is a meaningful cross-check,
which ``tests/oracles.verify_against_pipeline`` runs.

Row i of the system corresponds to coded bit i of the interleaved block,
i.e. bit (i mod n_bpsc) of the QAM label on the (i div n_bpsc)-th data
subcarrier.  Restricting rows to a subcarrier subset and solving the
restricted system recovers info bits that pin those subcarriers to
chosen QAM points; the remaining (dummy) subcarriers carry whatever the
solved bits imply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CONV_G1, CONV_G2, PhyConfig, bin_to_logical
from .errors import FramingError, SelectionError
from .gf2 import stacked_left_null
from .phy import _symbol_gather, _taps

__all__ = [
    "SymbolSystem",
    "build_symbol_system",
    "max_usable_subcarriers",
    "default_subset",
    "restrict_rows",
    "restrict_offsets",
    "certify_subset",
]


_STATE_WEIGHTS = 1 << np.arange(6)


@dataclass
class SymbolSystem:
    """Affine GF(2) model of one OFDM symbol's bit pipeline."""

    cfg: PhyConfig
    matrix: np.ndarray  # (alpha, beta) uint8
    state_offsets: np.ndarray  # (64, alpha) uint8
    data_positions: dict[int, int] = field(repr=False)

    @property
    def alpha(self) -> int:
        return self.matrix.shape[0]

    @property
    def beta(self) -> int:
        return self.matrix.shape[1]

    def row_index_of(self, subcarrier_bin: int, bit: int) -> int:
        """System row carrying label bit ``bit`` of a data subcarrier."""
        nb = self.cfg.n_bpsc
        if subcarrier_bin not in self.data_positions:
            raise SelectionError(f"bin {subcarrier_bin} is not a data subcarrier")
        if not 0 <= bit < nb:
            raise SelectionError(f"label bit index {bit} outside [0, {nb})")
        return self.data_positions[subcarrier_bin] * nb + bit

    def predict(self, x_bits: np.ndarray, state: int) -> np.ndarray:
        """C*x XOR offset(state), as a 0/1 array of length alpha."""
        x_bits = np.asarray(x_bits, dtype=np.uint8).ravel()
        if x_bits.size != self.beta:
            raise FramingError(f"{x_bits.size} info bits, expected {self.beta}")
        # uint8 products wrap modulo 256, which keeps their parity
        return ((self.matrix @ x_bits) ^ self.state_offsets[state]) & 1

    @staticmethod
    def outgoing_state(x_bits: np.ndarray) -> np.ndarray:
        """Encoder register content after consuming one symbol's bits:
        bit i is the (i+1)-th last bit.  Blocks run along the last axis,
        so an (n, beta) stack gives n states."""
        return (np.asarray(x_bits)[..., :-7:-1] & 1).astype(np.int64) @ _STATE_WEIGHTS


def build_symbol_system(cfg: PhyConfig) -> SymbolSystem:
    beta = cfg.n_dbps
    taps1 = _taps(CONV_G1)
    taps2 = _taps(CONV_G2)

    # Mother-stream rows over [info bits | state bits]: output bit 2t (+1)
    # is the parity of taps applied to inputs t, t-1, ..., t-6, where
    # negative time indexes the incoming state (bit q-1 = input q back).
    m_info = np.zeros((2 * beta, beta), dtype=np.uint8)
    m_state = np.zeros((2 * beta, 6), dtype=np.uint8)
    for t in range(beta):
        for j in range(7):
            src = t - j
            if taps1[j]:
                if src >= 0:
                    m_info[2 * t, src] ^= 1
                else:
                    m_state[2 * t, -src - 1] ^= 1
            if taps2[j]:
                if src >= 0:
                    m_info[2 * t + 1, src] ^= 1
                else:
                    m_state[2 * t + 1, -src - 1] ^= 1

    gather = _symbol_gather(cfg)
    c_dense = m_info[gather]
    u_dense = m_state[gather]

    state_bits = np.array([[(s >> i) & 1 for i in range(6)] for s in range(64)], dtype=np.uint8)
    offsets = (state_bits @ u_dense.T) % 2

    positions = {b: p for p, b in enumerate(cfg.data_subcarriers)}
    return SymbolSystem(
        cfg=cfg,
        matrix=c_dense,
        state_offsets=offsets.astype(np.uint8),
        data_positions=positions,
    )


def max_usable_subcarriers(cfg: PhyConfig) -> int:
    """Largest exactly-controllable subcarrier count per OFDM symbol."""
    return int(cfg.coding_rate * cfg.n_data)


def default_subset(cfg: PhyConfig, count: int | None = None) -> tuple[int, ...]:
    """The ``count`` data subcarriers closest to DC, in logical order.

    Dummies then sit at the band edges where real front ends are least
    reliable anyway.
    """
    if count is None:
        count = max_usable_subcarriers(cfg)
    if not 0 < count <= cfg.n_data:
        raise SelectionError(f"subset size {count} outside (0, {cfg.n_data}]")
    by_distance = sorted(
        cfg.data_subcarriers,
        key=lambda b: (abs(bin_to_logical(b, cfg.fft_size)), bin_to_logical(b, cfg.fft_size)),
    )
    subset = by_distance[:count]
    return tuple(sorted(subset, key=lambda b: bin_to_logical(b, cfg.fft_size)))


def _selection_rows(sys: SymbolSystem, chosen: tuple[int, ...]) -> np.ndarray:
    if not chosen:
        raise SelectionError("empty subcarrier selection")
    if len(set(chosen)) != len(chosen):
        raise SelectionError("chosen subcarriers contain duplicates")
    nb = sys.cfg.n_bpsc
    rows = np.empty(len(chosen) * nb, dtype=np.intp)
    for i, b in enumerate(chosen):
        base = sys.row_index_of(b, 0)
        rows[i * nb : (i + 1) * nb] = np.arange(base, base + nb)
    return rows


def restrict_rows(sys: SymbolSystem, chosen: tuple[int, ...]) -> np.ndarray:
    """Rows of the system for the chosen subcarriers, in (subcarrier, bit) order."""
    return sys.matrix[_selection_rows(sys, chosen)]


def restrict_offsets(sys: SymbolSystem, chosen: tuple[int, ...]) -> np.ndarray:
    """State offsets restricted to the chosen rows: (64, len(chosen)*n_bpsc)."""
    return sys.state_offsets[:, _selection_rows(sys, chosen)]


def _climb_to_full_rank(
    sys: SymbolSystem, chosen: list[int], target: int
) -> tuple[list[int], list[tuple[int, int]], int]:
    """First-improvement hill climb on selection rank.  Deterministic.

    Trial swaps run positions outer, candidates inner, and the first one
    that raises the rank wins.  Each pass eliminates the selection once
    and stacks each candidate onto it as a one-block update
    (``gf2.stacked_left_null``), which gives the pass's own rank and,
    per candidate, the rank and left null basis N of M = [selection;
    candidate].  Dropping block i of the selection leaves rank(M) -
    n_bpsc + rank(N[:, block i]), so one update rates the candidate at
    every position.  A block's rank is n_bpsc - log2 of its kernel,
    counted over all 2^n_bpsc column combinations in one product.
    """
    nb = sys.cfg.n_bpsc
    combos = (np.arange(1 << nb) >> np.arange(nb)[:, None]) & 1  # (nb, 2^nb)
    swaps: list[tuple[int, int]] = []
    while True:
        sel = _selection_rows(sys, tuple(chosen))
        others = [u for u in sys.cfg.data_subcarriers if u not in chosen]
        candidates = sys.matrix[_selection_rows(sys, tuple(others))]
        r, stacked = stacked_left_null(
            sys.matrix[sel], candidates.reshape(len(others), nb, sys.beta)
        )
        if r >= target:
            return chosen, swaps, r
        trial = np.empty((len(chosen), len(others)), dtype=np.intp)
        for j, (r_m, null) in enumerate(stacked):
            blocks = null[:, : sel.size].reshape(null.shape[0], len(chosen), nb)
            kernel = np.all(((blocks @ combos) & 1) == 0, axis=0).sum(axis=1)
            # rank(M) - nb + (nb - log2 |kernel|), for every position at once
            trial[:, j] = r_m - np.log2(kernel).astype(np.intp)
        better = np.argwhere(trial > r)
        if better.size == 0:
            return chosen, swaps, r
        i, j = better[0]
        swaps.append((chosen[i], others[j]))
        chosen = list(chosen)
        chosen[i] = others[j]
        if trial[i, j] >= target:
            return chosen, swaps, int(trial[i, j])


# seeded random restarts after the climb from the given selection stalls
_RESTARTS = 8


def certify_subset(
    sys: SymbolSystem, chosen: tuple[int, ...]
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Certify full row rank for a selection, swapping subcarriers if needed.

    At the exact capacity bound, most selections (including the centered
    default) sit a few rows short of full rank because the last info
    bits of a symbol touch only a handful of coded bits before the
    encoder state rolls into the next symbol.  A deterministic
    first-improvement hill climb over single-subcarrier swaps repairs
    this; if it stalls in a local maximum, seeded random restarts
    continue the search.  Each climb pass eliminates the selection once,
    then stacks each candidate subcarrier onto it as a one-block update,
    and reads the rank of every trial swap from that stack's left null
    space (see ``_climb_to_full_rank``).  An empty selection, or one with
    more rows than the symbol has info bits, cannot reach full row rank
    and is rejected at once.
    Returns the certified selection (sorted by logical index) and the
    swaps applied to the original.
    """
    _selection_rows(sys, chosen)  # validates bins, duplicates and emptiness
    target = len(chosen) * sys.cfg.n_bpsc
    if target > sys.beta:
        raise SelectionError(
            f"{len(chosen)} subcarriers need {target} independent rows, "
            f"but a symbol has only {sys.beta} info bits"
        )
    fixed, swaps, r = _climb_to_full_rank(sys, list(chosen), target)
    restart = 0
    while r < target and restart < _RESTARTS:
        rng = np.random.default_rng(restart)
        start = sorted(
            rng.choice(np.asarray(sys.cfg.data_subcarriers), len(chosen), replace=False).tolist()
        )
        fixed, _, r = _climb_to_full_rank(sys, start, target)
        restart += 1
    if r < target:
        raise SelectionError(f"no subcarrier swap reaches full rank (stuck at {r}/{target})")
    final = tuple(
        sorted(fixed, key=lambda b: bin_to_logical(b, sys.cfg.fft_size))
    )
    original = set(chosen)
    swaps = [(b, a) for b, a in zip(sorted(original - set(final)), sorted(set(final) - original))]
    return final, swaps

