"""The benchmark's tracer still binds to the package.

``perfbench/tracer.py`` wraps the public functions in its ``TRACED`` table
by module and attribute name, and reads attributes of their results.  A
rename or a changed return type in the package would break traced
benchmark runs without failing any other test, so this one installs the
tracer and drives each layer through its module binding.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

from ofdmemu import gf2, harness, inversion, link, phy, training
from ofdmemu.config import PhyConfig
from ofdmemu.nn import autodiff

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_to_every_traced_layer(default_setup):
    cfg = default_setup.cfg
    rng = np.random.default_rng(3)
    tracer = load_tracer().Tracer("bindings")
    # install() looks up every TRACED name and fails on one that is gone
    tracer.install()
    try:
        targets = link.TargetSymbols.unit_power(
            rng.normal(size=100) + 1j * rng.normal(size=100), cfg
        )
        link.emulated_link(targets, 15.0, 1, default_setup)
        bits = rng.integers(0, 2, 2 * cfg.n_dbps, dtype=np.uint8)
        assert np.array_equal(phy.rx_chain(phy.tx_chain(bits, cfg).samples, cfg), bits)
        # the GF(2) layers run on the 0/1 arrays the package passes them
        a = rng.integers(0, 2, (20, 30), dtype=np.uint8)
        y = (a @ rng.integers(0, 2, 30, dtype=np.uint8)) & 1
        assert gf2.rank(a) <= 20
        assert np.array_equal((a @ gf2.Gf2Solver(a).solve(y)) & 1, y)
        x = autodiff.Tensor(rng.normal(size=(1, 4, 4, 2)), requires_grad=True)
        w = autodiff.Tensor(rng.normal(size=(3, 3, 2, 2)), requires_grad=True)
        autodiff.conv2d(x, w).sum().backward()
        training.Curriculum().sample(rng)
    finally:
        tracer.uninstall()

    names = {s[2] for s in tracer.spans}
    assert names >= {
        "link.emulated_link", "link.sender_invert", "link.awgn",
        "link.receiver_recover_soft", "phy.scramble", "phy.tx_chain", "phy.rx_chain",
        "phy.viterbi_decode", "nn.conv2d", "nn.backward", "training.curriculum_sample",
        "gf2.rank", "gf2.solver_factor", "gf2.solve",
    }
    assert [s for s in tracer.spans if "error" in (s[6] or {})] == []
    tx_spans = [s for s in tracer.spans if s[2] == "phy.tx_chain"]
    assert tx_spans and all("ofdm_symbols" in s[6] for s in tx_spans)
    # uninstall restored the package's own functions
    assert not any(hasattr(f, "__wrapped__") for f in (link.emulated_link, phy.tx_chain))


def test_sweep_emulated_cell_runs_the_emulated_link(default_setup):
    # one implementation of the link: the sweep's emulated cell receives
    # inside emulated_link, not through a copy of its steps
    spec = harness.ExperimentSpec(snr_list=(10.0,), n_symbols=100, systems=("emulated",))
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer("sweep")
    tracer.install()
    try:
        harness.run_sweep(spec, default_setup)
    finally:
        tracer.uninstall()
    table = tracer_module.SpanTable(tracer.spans, "sweep")
    receives = table.named("link.receiver_recover_soft")
    assert receives
    assert all("link.emulated_link" in table.ancestor_names(s) for s in receives)


def test_tracer_binds_to_setup_layers():
    # the default_setup fixture is cached, so set-up's layers run here on
    # a small pair of their own
    cfg = PhyConfig(modulation_order=2, coding_rate=Fraction(1, 2))
    tracer = load_tracer().Tracer("setup")
    tracer.install()
    try:
        system = inversion.build_symbol_system(cfg)
        chosen, _ = inversion.certify_subset(system, inversion.default_subset(cfg))
    finally:
        tracer.uninstall()
    assert gf2.rank(inversion.restrict_rows(system, chosen)) == len(chosen) * cfg.n_bpsc
    names = {s[2] for s in tracer.spans}
    assert {"inversion.build_symbol_system", "inversion.certify_subset"} <= names
    assert [s for s in tracer.spans if "error" in (s[6] or {})] == []


def test_tracer_counts_every_row_of_a_stacked_link(default_setup, tmp_path):
    # the traced train replay checks that the sender's spans carried every
    # target a pass sends; a stacked call must report the whole stack
    rows, k = 5, 50
    n_sym = -(-k // default_setup.n_chosen)
    rng = np.random.default_rng(8)
    symbols = rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))
    targets = link.TargetSymbols(symbols, rng.uniform(0.5, 2.0, rows))
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer("stack")
    tracer.install()
    try:
        link.emulated_link(targets, [15.0] * rows, list(range(rows)), default_setup)
    finally:
        tracer.uninstall()
    table = tracer_module.SpanTable(tracer.spans, "stack")
    inverts = table.named("link.sender_invert")
    assert sum(s[6]["targets"] for s in inverts) == rows * k
    assert sum(s[6]["ofdm_symbols"] for s in inverts) == rows * n_sym
    assert sum(s[6]["ofdm_symbols"] for s in table.named("phy.tx_chain")) == rows * n_sym
    (outer,) = table.named("link.emulated_link")
    (receive,) = table.named("link.receiver_recover_soft")
    assert "link.emulated_link" in table.ancestor_names(receive)
    assert table.inside(receive, outer)
    # the traced run writes every span's attributes as JSON
    tracer.write_jsonl(tmp_path / "trace.jsonl")
    assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == len(tracer.spans)
