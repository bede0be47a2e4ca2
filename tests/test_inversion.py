from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ofdmemu.config import PhyConfig, bin_to_logical
from ofdmemu.errors import FramingError, SelectionError
from ofdmemu.gf2 import rank
from ofdmemu.inversion import (
    _CERTIFIED,
    _climb_to_full_rank,
    _search,
    _search_digest,
    build_symbol_system,
    certify_subset,
    default_subset,
    max_usable_subcarriers,
    restrict_offsets,
    restrict_rows,
)
from ofdmemu.phy import conv_encode


def test_system_dimensions(default_cfg):
    sys = build_symbol_system(default_cfg)
    assert sys.matrix.shape[0] == default_cfg.n_cbps
    assert sys.beta == default_cfg.n_dbps
    assert sys.state_offsets.shape == (64, sys.matrix.shape[0])


@pytest.mark.parametrize(
    "mod,rate",
    [(64, Fraction(3, 4)), (16, Fraction(1, 2)), (4, Fraction(2, 3)), (2, Fraction(1, 2))],
)
def test_model_matches_live_chain(mod, rate):
    cfg = PhyConfig(modulation_order=mod, coding_rate=rate)
    sys = build_symbol_system(cfg)
    assert oracles.verify_against_pipeline(sys, probes=50, seed=3) == 0


def test_offset_zero_for_zero_state(default_cfg):
    sys = build_symbol_system(default_cfg)
    assert not np.any(sys.state_offsets[0])


def test_outgoing_state_matches_encoder(default_cfg, rng):
    sys = build_symbol_system(default_cfg)
    x = rng.integers(0, 2, (20, sys.beta), dtype=np.uint8)
    ends = [conv_encode(block, 0)[1] for block in x]
    assert sys.outgoing_state(x[0]) == ends[0]
    assert sys.outgoing_state(x).tolist() == ends


def test_row_index_of_validates(default_cfg):
    sys = build_symbol_system(default_cfg)
    first_bin = default_cfg.data_subcarriers[0]
    assert sys.row_index_of(first_bin, 0) == 0
    with pytest.raises(SelectionError):
        sys.row_index_of(0, 0)  # DC is not a data subcarrier
    with pytest.raises(SelectionError):
        sys.row_index_of(first_bin, default_cfg.n_bpsc)


@pytest.mark.parametrize(
    "rate,expect",
    [(Fraction(1, 2), 24), (Fraction(2, 3), 32), (Fraction(3, 4), 36), (Fraction(5, 6), 40)],
)
def test_max_usable_subcarriers(rate, expect):
    cfg = PhyConfig(modulation_order=64, coding_rate=rate)
    assert max_usable_subcarriers(cfg) == expect


def test_default_subset_is_centered(default_cfg):
    subset = default_subset(default_cfg)
    assert len(subset) == max_usable_subcarriers(default_cfg)
    assert len(set(subset)) == len(subset)
    data = set(default_cfg.data_subcarriers)
    assert all(b in data for b in subset)
    inside = max(abs(bin_to_logical(b)) for b in subset)
    outside = min(abs(bin_to_logical(b)) for b in data - set(subset))
    assert inside <= outside


def test_default_subset_rejects_bad_count(default_cfg):
    with pytest.raises(SelectionError):
        default_subset(default_cfg, 0)
    with pytest.raises(SelectionError):
        default_subset(default_cfg, default_cfg.n_data + 1)


def test_restrict_shapes(default_cfg):
    sys = build_symbol_system(default_cfg)
    chosen = default_subset(default_cfg, 10)
    nb = default_cfg.n_bpsc
    sub = restrict_rows(sys, chosen)
    assert sub.shape == (10 * nb, sys.beta)
    assert restrict_offsets(sys, chosen).shape == (64, 10 * nb)


def test_restricted_rows_track_full_prediction(default_cfg, rng):
    sys = build_symbol_system(default_cfg)
    chosen = default_subset(default_cfg, 12)
    sub_dense = restrict_rows(sys, chosen)
    sub_off = restrict_offsets(sys, chosen)
    x = rng.integers(0, 2, sys.beta, dtype=np.uint8)
    state = 37
    full = sys.predict(x, state)
    nb = default_cfg.n_bpsc
    rows = [sys.row_index_of(b, k) for b in chosen for k in range(nb)]
    assert np.array_equal((sub_dense @ x + sub_off[state]) % 2, full[rows])
    for size in (sys.beta - 1, sys.beta + 1, 0):
        with pytest.raises(FramingError):
            sys.predict(np.zeros(size, dtype=np.uint8), state)


def test_restrict_rejects_duplicates(default_cfg):
    sys = build_symbol_system(default_cfg)
    b = default_cfg.data_subcarriers[0]
    with pytest.raises(SelectionError):
        restrict_rows(sys, (b, b))


def test_certify_reaches_full_rank_at_capacity(default_cfg):
    sys = build_symbol_system(default_cfg)
    chosen = default_subset(default_cfg)
    assert _search_digest(sys, chosen) in _CERTIFIED
    certified, swaps = certify_subset(sys, chosen)
    nb = default_cfg.n_bpsc
    assert rank(restrict_rows(sys, certified)) == len(certified) * nb
    assert len(certified) == len(chosen)
    # swaps record exactly the membership difference
    assert set(chosen) - set(certified) == {b for b, _ in swaps}
    assert set(certified) - set(chosen) == {a for _, a in swaps}
    # the caller owns the swaps list: clearing it leaves the table intact
    kept = list(swaps)
    swaps.clear()
    assert certify_subset(sys, chosen) == (certified, kept)


def test_certify_rejects_oversized_selection(default_cfg):
    sys = build_symbol_system(default_cfg)
    over = default_subset(default_cfg, max_usable_subcarriers(default_cfg) + 2)
    with pytest.raises(SelectionError):
        certify_subset(sys, over)


def test_certify_rejects_empty_selection(default_cfg):
    sys = build_symbol_system(default_cfg)
    with pytest.raises(SelectionError, match="empty"):
        certify_subset(sys, ())
    with pytest.raises(SelectionError, match="empty"):
        restrict_rows(sys, ())


# The climb eliminates the selection once per pass and rates all trial
# swaps of a candidate from one stacked update of that elimination; the
# reference rates each swap with its own gf2.rank.  Both must take
# the same swaps in the same order, from starts that reach full rank
# and from starts that stall below it.

RATES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6))
CLIMB_PAIRS = [(mod, rate) for mod in (2, 4, 16) for rate in RATES]
ALL_PAIRS = {
    f"m{mod}-r{rate.numerator}{rate.denominator}": PhyConfig(modulation_order=mod, coding_rate=rate)
    for mod in (2, 4, 16, 64)
    for rate in RATES
}


def _climb_case(mod, rate, seed):
    """System, seeded random capacity-sized start and full-rank target."""
    cfg = PhyConfig(modulation_order=mod, coding_rate=rate)
    count = max_usable_subcarriers(cfg)
    rng = np.random.default_rng(seed)
    start = rng.choice(np.asarray(cfg.data_subcarriers), count, replace=False).tolist()
    return build_symbol_system(cfg), start, count * cfg.n_bpsc


# The stored table holds exactly the search's swaps from the 16 default
# subsets, and the selection certify_subset derives from them is the
# search's, of full rank.  On a mismatch the message is the fresh entry,
# to paste into inversion._CERTIFIED.
@pytest.mark.parametrize("name", sorted(ALL_PAIRS))
def test_stored_selection_is_the_search(name):
    cfg = ALL_PAIRS[name]
    sys = build_symbol_system(cfg)
    start = default_subset(cfg)
    digest = _search_digest(sys, start)
    chosen, swaps = _search(sys, start)
    fresh = f'"{digest}": {tuple(swaps)}'
    assert _CERTIFIED.get(digest) == tuple(swaps), fresh
    assert certify_subset(sys, start) == (chosen, swaps)
    assert rank(restrict_rows(sys, chosen)) == len(chosen) * cfg.n_bpsc


def test_stored_table_has_no_other_entries():
    digests = {_search_digest(build_symbol_system(c), default_subset(c)) for c in ALL_PAIRS.values()}
    assert set(_CERTIFIED) == digests


@pytest.mark.slow
@settings(max_examples=8, deadline=None)
@given(pair=st.sampled_from(CLIMB_PAIRS), seed=st.integers(0, 2**32 - 1))
def test_climb_matches_reference(pair, seed):
    sys, start, target = _climb_case(*pair, seed)
    got = _climb_to_full_rank(sys, list(start), target)
    assert got == oracles.climb_reference(sys, list(start), target)


# one swap then stuck 1 row short; five swaps then stuck 2 rows short
@pytest.mark.parametrize("mod,rate,seed", [(4, Fraction(5, 6), 5), (16, Fraction(1, 2), 17)])
def test_climb_matches_reference_when_stalled(mod, rate, seed):
    sys, start, target = _climb_case(mod, rate, seed)
    got = _climb_to_full_rank(sys, list(start), target)
    assert got == oracles.climb_reference(sys, list(start), target)
    assert got[1] and got[2] < target


# a start that is no default subset misses the stored table, and the
# search's restarts take it to full rank
def test_certify_searches_on_a_digest_miss():
    sys, start, target = _climb_case(16, Fraction(1, 2), 17)
    assert _search_digest(sys, start) not in _CERTIFIED
    certified, swaps = certify_subset(sys, start)
    assert rank(restrict_rows(sys, certified)) == target
    assert (certified, swaps) == _search(sys, start)


# the default PHY's pairs from their default subsets: 3/4 stalls at 213
# of 216 rows with no swap, 5/6 takes four swaps and stalls at 239 of 240
@pytest.mark.parametrize(
    "rate,swaps,stall",
    [(Fraction(3, 4), 0, 213), (Fraction(5, 6), 4, 239)],
    ids=["64qam-3/4", "64qam-5/6"],
)
def test_climb_matches_reference_from_default_subset(rate, swaps, stall):
    cfg = PhyConfig(modulation_order=64, coding_rate=rate)
    sys = build_symbol_system(cfg)
    start = list(default_subset(cfg))
    target = len(start) * cfg.n_bpsc
    got = _climb_to_full_rank(sys, list(start), target)
    assert got == oracles.climb_reference(sys, list(start), target)
    assert (len(got[1]), got[2]) == (swaps, stall)
