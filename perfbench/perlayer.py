"""Per-layer metrics derived from the spans of one traced run.

``*_s`` metrics of a function layer are its self time (children
excluded) per pass of the workload; the ``training.*`` stage and
``harness.cell_s.*`` metrics are inclusive wall times of calls the
benchmark itself makes.  ``*_us_*`` metrics are inclusive per unit of
work.  A layer that a workload never reaches reads 0.  ``layers.json``
lists the same metrics with the layer and workload each should move.
"""

from __future__ import annotations

from tracer import SpanTable

SETUP_TIMES = {
    "inversion.build_symbol_system_s": "inversion.build_symbol_system",
    "inversion.certify_subset_s": "inversion.certify_subset",
    "gf2.solver_factor_s": "gf2.solver_factor",
}
SELF_TIMES = {
    "link.sender_invert_s": "link.sender_invert",
    "phy.scramble_s": "phy.scramble",
    "link.reference_waveform_s": "link.reference_waveform",
    "phy.tx_chain_s": "phy.tx_chain",
    "link.awgn_s": "link.awgn",
    "link.receiver_recover_soft_s": "link.receiver_recover_soft",
    "phy.rx_chain_s": "phy.rx_chain",
    "phy.viterbi_decode_s": "phy.viterbi_decode",
    "nn.backward_s": "nn.backward",
}
STAGES = {
    "training.stage1_s": "training.stage1",
    "training.stage2_s": "training.stage2",
    "training.ideal_s": "training.ideal",
    "training.stage3_s": "training.stage3",
    "training.eval_s": "training.eval",
}
CELL_SYSTEMS = ("ideal_analog", "emulated", "float_serial")
CONV_KINDS = ("ofdm_fold", "source_fold", "proxy")
TRAINING_STAGES = {"training.stage1", "training.collect_records", "training.stage2",
                   "training.stage3"}
HEALTH = ("training.stage1_improvement", "training.stage2_noise_gain",
          "training.stage3_final_joint_loss")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _attr_sum(spans: list[tuple], key: str) -> float:
    return sum((s[6] or {}).get(key, 0) for s in spans)


def conv_kind(span: tuple, ofdm_period: int) -> str:
    """Which model a conv2d call belongs to, from its shapes.

    The proxy's kernels are one row high; the compensator folds the
    waveform either at the OFDM period or at the source-symbol period.
    """
    attrs = span[6]
    if attrs["kernel"][0] == 1:
        return "proxy"
    return "ofdm_fold" if attrs["x_shape"][2] == ofdm_period else "source_fold"


def _stage1_epoch_s(t: SpanTable, epochs: int) -> float:
    """Stage-1 time after its last link call (the data), per epoch."""
    total = 0.0
    for stage in t.named("training.stage1"):
        links = [s for s in t.named("link.emulated_link") if t.inside(s, stage)]
        start = max((s[4] for s in links), default=stage[3])
        total += stage[4] - start
    return total / epochs


def _phase_a_epoch_s(t: SpanTable, epochs: int) -> float:
    """Stage-3 phase A per epoch, from curriculum draws.

    Phase A draws an SNR per batch from one generator and phase B per
    refresh record from another; a phase-A window runs from its first
    draw to the first phase-B draw after it.
    """
    windows = []
    for stage in t.named("training.stage3"):
        draws = sorted((s for s in t.named("training.curriculum_sample") if t.inside(s, stage)),
                       key=lambda s: s[3])
        if not draws:
            continue
        phase_a = draws[0][6]["rng"]
        start = None
        for d in draws:
            if d[6]["rng"] == phase_a and start is None:
                start = d[3]
            elif d[6]["rng"] != phase_a and start is not None:
                windows.append(d[3] - start)
                start = None
    return _ratio(sum(windows), len(windows) * epochs)


def layer_metrics(spans: list[tuple], setup_run: str, timed_run: str, passes: int,
                  swaps: int, period: int, train_cfg=None) -> dict[str, float]:
    s = SpanTable(spans, setup_run)
    t = SpanTable(spans, timed_run)
    m: dict[str, float] = {}
    for metric, name in SETUP_TIMES.items():
        m[metric] = s.self_total(name)
    ranks = s.named("gf2.rank")
    m["gf2.rank_calls"] = len(ranks)
    m["gf2.rank_us_mean"] = _ratio(s.total("gf2.rank"), len(ranks), 1e6)
    m["inversion.swaps"] = swaps

    for metric, name in SELF_TIMES.items():
        m[metric] = t.self_total(name) / passes
    inv = t.named("link.sender_invert")
    m["link.sender_invert_us_per_ofdm_symbol"] = _ratio(
        t.total("link.sender_invert"), _attr_sum(inv, "ofdm_symbols"), 1e6)
    solves = t.named("gf2.solve")
    m["gf2.solve_calls"] = len(solves) / passes
    m["gf2.solve_us_mean"] = _ratio(t.total("gf2.solve"), len(solves), 1e6)
    m["phy.tx_chain_us_per_ofdm_symbol"] = _ratio(
        t.total("phy.tx_chain"), _attr_sum(t.named("phy.tx_chain"), "ofdm_symbols"), 1e6)
    steps = _attr_sum(t.named("phy.viterbi_decode"), "steps")
    m["phy.viterbi_steps"] = steps / passes
    m["phy.viterbi_us_per_step"] = _ratio(t.total("phy.viterbi_decode"), steps, 1e6)
    m["link.clip_rate"] = _ratio(_attr_sum(inv, "clip_count"), 2 * _attr_sum(inv, "targets"))

    for system in CELL_SYSTEMS:
        cells = t.named(f"harness.cell.{system}")
        m[f"harness.cell_s.{system}"] = _ratio(t.total(f"harness.cell.{system}"), len(cells))

    convs = t.named("nn.conv2d")
    m["nn.conv2d_fwd_calls"] = len(convs) / passes
    for kind in CONV_KINDS:
        m[f"nn.conv2d_fwd_s.{kind}"] = sum(
            t.self_time[c[0]] for c in convs if conv_kind(c, period) == kind) / passes
    m["nn.conv2d_fwd_mflop"] = _attr_sum(convs, "flop") / passes / 1e6

    for metric, name in STAGES.items():
        m[metric] = t.total(name) / passes
    m["training.link_s"] = sum(
        sp[4] - sp[3] for sp in t.named("link.emulated_link")
        if t.ancestor_names(sp) & TRAINING_STAGES) / passes
    m["training.stage1_epoch_s"] = (
        _stage1_epoch_s(t, passes * train_cfg.stage1_epochs) if train_cfg else 0.0)
    m["training.stage3_phase_a_epoch_s"] = (
        _phase_a_epoch_s(t, train_cfg.stage3_phase_a_epochs) if train_cfg else 0.0)
    return m


def sent_targets(spans: list[tuple], run_id: str) -> int:
    """Target values the run's ``sender_invert`` calls carried."""
    return int(_attr_sum(SpanTable(spans, run_id).named("link.sender_invert"), "targets"))
