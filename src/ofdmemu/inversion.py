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

import hashlib
from dataclasses import dataclass

import numpy as np

from .config import CONV_G1, CONV_G2, PhyConfig, bin_to_logical
from .errors import FramingError, SelectionError
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

    @property
    def beta(self) -> int:
        return self.matrix.shape[1]

    def row_index_of(self, subcarrier_bin: int, bit: int) -> int:
        """System row carrying label bit ``bit`` of a data subcarrier."""
        nb = self.cfg.n_bpsc
        data = self.cfg.data_subcarriers
        if subcarrier_bin not in data:
            raise SelectionError(f"bin {subcarrier_bin} is not a data subcarrier")
        if not 0 <= bit < nb:
            raise SelectionError(f"label bit index {bit} outside [0, {nb})")
        return data.index(subcarrier_bin) * nb + bit

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
    """The symbol's model, read off the mother-code taps.

    Mother output bit 2t + g (generator g) is the parity of the inputs
    its taps select from [register | info bits], the layout
    ``phy._encode`` reads: tap j (MSB first) weights the input j steps
    back, at column t + 6 - j.  Register column 5 - i holds the input
    i + 1 steps back, which is bit i of the incoming state.  The
    transmitter's puncture-and-interleave map then picks the coded rows.
    """
    beta = cfg.n_dbps
    t = np.arange(beta)
    mother = np.zeros((2 * beta, 6 + beta), dtype=np.uint8)
    for g, poly in enumerate((CONV_G1, CONV_G2)):
        for j in np.flatnonzero(_taps(poly)):
            mother[2 * t + g, t + 6 - j] = 1
    gather = _symbol_gather(cfg)
    u_dense = mother[gather, 5::-1]  # column i: state bit i
    state_bits = (np.arange(64)[:, None] >> np.arange(6)) & 1
    return SymbolSystem(
        cfg=cfg,
        matrix=mother[gather, 6:],
        state_offsets=((state_bits @ u_dense.T) % 2).astype(np.uint8),
    )


def max_usable_subcarriers(cfg: PhyConfig) -> int:
    """Largest exactly-controllable subcarrier count per OFDM symbol."""
    return int(cfg.coding_rate * cfg.n_data)


def default_subset(cfg: PhyConfig) -> tuple[int, ...]:
    """The ``max_usable_subcarriers`` data subcarriers closest to DC, in logical order.

    Dummies then sit at the band edges where real front ends are least
    reliable anyway.
    """
    by_distance = sorted(
        cfg.data_subcarriers, key=lambda b: (abs(bin_to_logical(b)), bin_to_logical(b))
    )
    return _by_logical(by_distance[: max_usable_subcarriers(cfg)])


def _by_logical(bins) -> tuple[int, ...]:
    """Subcarrier bins sorted by logical index, the order of a selection."""
    return tuple(sorted(bins, key=bin_to_logical))


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


def _search_digest(sys: SymbolSystem, chosen: tuple[int, ...]) -> str:
    """SHA-256 of all the selection search reads: the system matrix (shape
    and bytes), the data-subcarrier list and the starting selection."""
    h = hashlib.sha256()
    h.update(np.asarray(sys.matrix.shape, dtype="<i8").tobytes())
    h.update(sys.matrix.tobytes())
    h.update(np.asarray(sys.cfg.data_subcarriers, dtype="<i8").tobytes())
    h.update(np.asarray(chosen, dtype="<i8").tobytes())
    return h.hexdigest()


# _search_digest(system, default_subset(cfg)) -> the (out, in) swaps that
# the search in tests/selection_search.py returns from it, for the 16
# (modulation, rate) pairs; tests/test_inversion.py re-derives every
# entry with it.  The selection is the default subset with the swaps
# applied, sorted by logical index
_CERTIFIED: dict[str, tuple[tuple[int, int], ...]] = {
    # bpsk 1/2
    "4452e4fffe2e07da7e0e4f23ca366dc4eca34cf1832fbfd34d5fa3f0b8f5a057": (
        (51, 16), (54, 23), (55, 39), (61, 40),
    ),
    # bpsk 2/3
    "117a2ed8fa9fd66624b6a6e64578950e57f7042b7cef7b688db4641c296435c2": (
        (48, 19), (51, 26),
    ),
    # bpsk 3/4
    "c2247c61be0010b2287d17d09822e6cf6cefc210881d3552e170aaca1deaf339": (
        (45, 23), (48, 26), (54, 40),
    ),
    # bpsk 5/6
    "39cfcd6a114e2cb26d13ada7414f33de8845bcc640012307b9d0686d267776e9": (
        (45, 23), (48, 26), (58, 39),
    ),
    # qpsk 1/2
    "e80f93536bdac91a072fdccbf2e56cc31402c283e1ba718fe2899eb43e77f809": (
        (3, 15), (5, 19), (8, 22), (11, 24), (12, 26), (13, 39), (54, 40), (56, 44), (59, 46),
        (60, 47),
    ),
    # qpsk 2/3
    "1d8ede290b9737546bf4e9eeed12ed3f92e27121c654ec16fabccfa1394ad82d": (
        (1, 20), (2, 22), (4, 23), (5, 24), (6, 25), (8, 26), (11, 38), (51, 39), (52, 42),
        (54, 44), (62, 45),
    ),
    # qpsk 3/4
    "25011c632607a75d9971873e069a74dec8ab013bda7b02c5cf3a53005dd251c1": (
        (1, 20), (2, 22), (4, 23), (5, 24), (11, 25), (15, 26), (18, 39), (45, 41), (49, 42),
        (62, 44),
    ),
    # qpsk 5/6
    "7ddb005c85c17fa658ebdbfc9d4e5893e4d40db7a746120267de16f68b901f4e": (
        (1, 23), (4, 24), (13, 26), (45, 38), (49, 39), (52, 40),
    ),
    # 16qam 1/2
    "aa4929f10f03fe1af211c2595292005966f3f8f8ccdfade1bd3e8b5cd76901e2": (
        (2, 14), (4, 17), (6, 19), (8, 20), (10, 22), (13, 23), (54, 25), (55, 26), (56, 40),
        (58, 45), (59, 46), (61, 47), (63, 50),
    ),
    # 16qam 2/3
    "0c118dfcdbfe425c06ea1ba52af4d758146ffb03137ad581470b2070c56ca291": (
        (1, 19), (2, 20), (4, 22), (5, 23), (6, 24), (16, 25), (17, 26), (51, 38), (52, 39),
        (54, 42), (62, 45),
    ),
    # 16qam 3/4
    "27726b6cc94d8a1da71ac1d604475ff34d6671d9d6378e7b81563c4875aeb3c6": (
        (1, 20), (2, 22), (4, 23), (12, 24), (15, 25), (16, 26), (48, 38), (52, 40), (53, 42),
        (60, 44),
    ),
    # 16qam 5/6
    "1e1cdbde7fcbf388b3257234a59adfb7cc5e8932b421abfe24ddffc6891f43b8": (
        (1, 23), (8, 24), (10, 25), (12, 26), (22, 38), (55, 39), (61, 40),
    ),
    # 64qam 1/2
    "5f06a859aecf9970d007e1084f6ed92d4d13b90fd55f8ad1a5189bca364c5680": (
        (2, 14), (3, 19), (4, 22), (5, 24), (8, 26), (11, 39), (12, 40), (13, 42), (54, 44),
        (56, 45), (59, 46), (60, 47),
    ),
    # 64qam 2/3
    "72bc8b0210b14e87852ffad08e48b2c9ed687b634f3994cb2d8fc60e7d56c962": (
        (47, 23), (51, 24), (53, 26), (58, 46),
    ),
    # 64qam 3/4
    "51486c377843f550a22d1da549ddfb43ac14d23dbcb1d843026de292d5a3cf05": (
        (1, 20), (3, 22), (8, 23), (9, 24), (13, 25), (14, 26), (50, 39), (54, 41), (62, 44),
    ),
    # 64qam 5/6
    "099c39d5eecbf3d4b129edcb67f1298e71cfff4d20134615aabebfabd5694e03": (
        (8, 23), (12, 24), (13, 25), (22, 26), (50, 39), (55, 40), (61, 41),
    ),
}


def certify_subset(
    sys: SymbolSystem, chosen: tuple[int, ...]
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """The certified full-row-rank selection for a default subset.

    At the exact capacity bound, most selections (the centered default
    among them) sit a few rows short of full rank: the last info bits of
    a symbol touch only a handful of coded bits before the encoder state
    rolls into the next symbol.  ``_CERTIFIED`` holds the swaps that
    repair each default subset, as the search in
    ``tests/selection_search.py`` finds them.  A hit applies them to
    ``chosen``; any other start, or a system whose coded-bit map has
    changed, misses and raises SelectionError.  Returns the certified
    selection (sorted by logical index) and a fresh list of the (out, in)
    swaps; ``EmulationSetup`` checks its rank.
    """
    _selection_rows(sys, chosen)  # validates bins, duplicates and emptiness
    swaps = _CERTIFIED.get(_search_digest(sys, chosen))
    if swaps is None:
        raise SelectionError(
            "only the 16 default subsets are certified; after a change to the coded-bit "
            "map, re-derive the table with the search in tests/selection_search.py"
        )
    kept = set(chosen).difference(b for b, _ in swaps)
    return _by_logical(kept.union(a for _, a in swaps)), list(swaps)
