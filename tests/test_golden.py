"""Golden digests of the artifacts the emulator produces.

For every (modulation, rate) pair this pins the configuration
fingerprint that every ``checkpoint.txt`` records, and the certified
subcarrier selection and its swaps.  For the default 64-QAM rate-3/4 configuration
and for QPSK rate 1/2 it pins the sweep CSV and plot-data bytes of the
three non-learned systems and the bytes the inverted sender and the
emulated link produce at fixed seeds.  The transmit grids of a 300-symbol
payload, past the 127-symbol period of the scrambler and the pilot
polarity, are pinned for 64-QAM rate 3/4, 16-QAM rate 1/2 and BPSK
rate 1/2.  A refactor leaves every digest unchanged; a change meant to
move one says why in CHANGES.md and re-pins it here.

Learned outputs of a tiny training run are pinned to a relative 1e-9
rather than to bytes, because a kernel rewrite may reorder sums.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from ofdmemu.cli import main
from ofdmemu.config import PhyConfig
from ofdmemu.harness import ExperimentSpec, csv_text, emit_plotdata, run_sweep
from ofdmemu.link import EmulationSetup, TargetSymbols, emulated_link, sender_invert
from ofdmemu.phy import tx_grids
from ofdmemu.sources import gaussian_symbols, glyph_images
from ofdmemu.training import TrainConfig, evaluate_image_link, run_training_pipeline

MODULATION_IDS = {2: "bpsk", 4: "qpsk", 16: "16qam", 64: "64qam"}
PAIRS = {
    f"{MODULATION_IDS[m]}-r{r.numerator}{r.denominator}": PhyConfig(
        modulation_order=m, coding_rate=r
    )
    for m in (2, 4, 16, 64)
    for r in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6))
}
CONFIGS = {name: PAIRS[name] for name in ("64qam-r34", "qpsk-r12")}

SWEEP_SYSTEMS = ("ideal_analog", "emulated", "float_serial")
SWEEP_SEED = 7
TARGET_SEED = 11
LINK_SEED = 13
LINK_SNR_DB = 12.0

GOLDEN = {
    "64qam-r34": {
        "sweep": "5981c5864893a23cecfccf14cf50a1a20824c9b4b9588501f1f03d9bc6cf92da",
        "bitstream": "2c07f206c0580d454f4d0fb8451e3b009e90b6431f5f902a17ec78b10eb9efe8",
        "incoming_states": "75d9f5f144d2e8b7ba4a31652ef7daa58a446c4af04d1e3d375263a950df41f9",
        "soft_estimates": "ee1e74b84e191f009f6c4edc0b8e4f47a13796ac0e8dedb6f403f3e6e34bd4ee",
        "hard_estimates": "e901561a7158b461b8eadf4ce867dc7e27f64d21c59519c3239613ce6935d280",
        "tx_frame": "b610418532f2b9bf0d2cdd7c52ee2c01d530fe14cd49dbcfb0d1b3ff13fbe895",
    },
    "qpsk-r12": {
        "sweep": "453eb5a9e84f6402c09f100da6df560cd3aa5ae3c010951bab30c897320b9aa8",
        "bitstream": "b34c20c61908aba9e6cf7d0e80b2d597834c7a8c5e42fa763de2909bcb2a64d4",
        "incoming_states": "e3e898d4d8f28ded9683ab30259587a3ce62ad333f85e7f71070ff5d89b2d8ea",
        "soft_estimates": "bf656307d56e80d7474734d1120dfb1271ed4b86a55a0aa7c44266c761f55986",
        "hard_estimates": "a5c2336fb9c1f610a04a6c717620b5d2747286f9d2d9a555633ff99aafb7624a",
        "tx_frame": "e60979e0b15b35b6b57fe4b20bbcd0c4eb2ab8f3b8e18ae6262060f655bdc718",
    },
}

# pair -> (certified chosen bins, swaps from the default subset)
SELECTIONS = {
    "bpsk-r12": (
        (
            39, 40, 52, 53, 56, 58, 59, 60, 62, 63, 1, 2, 3, 4, 5, 6, 8, 9,
            10, 11, 12, 13, 16, 23,
        ),
        [
            (51, 16), (54, 23), (55, 39), (61, 40),
        ],
    ),
    "bpsk-r23": (
        (
            47, 49, 50, 52, 53, 54, 55, 56, 58, 59, 60, 61, 62, 63, 1, 2, 3, 4,
            5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 26,
        ),
        [
            (48, 19), (51, 26),
        ],
    ),
    "bpsk-r34": (
        (
            40, 46, 47, 49, 50, 51, 52, 53, 55, 56, 58, 59, 60, 61, 62, 63, 1, 2,
            3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 23, 26,
        ),
        [
            (45, 23), (48, 26), (54, 40),
        ],
    ),
    "bpsk-r56": (
        (
            39, 42, 44, 46, 47, 49, 50, 51, 52, 53, 54, 55, 56, 59, 60, 61, 62, 63,
            1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
            20, 22, 23, 26,
        ),
        [
            (45, 23), (48, 26), (58, 39),
        ],
    ),
    "qpsk-r12": (
        (
            39, 40, 44, 46, 47, 51, 52, 53, 55, 58, 61, 62, 63, 1, 2, 4, 6, 9,
            10, 15, 19, 22, 24, 26,
        ),
        [
            (3, 15), (5, 19), (8, 22), (11, 24), (12, 26), (13, 39), (54, 40), (56, 44),
            (59, 46), (60, 47),
        ],
    ),
    "qpsk-r23": (
        (
            38, 39, 42, 44, 45, 47, 48, 49, 50, 53, 55, 56, 58, 59, 60, 61, 63, 3,
            9, 10, 12, 13, 14, 15, 16, 17, 20, 22, 23, 24, 25, 26,
        ),
        [
            (1, 20), (2, 22), (4, 23), (5, 24), (6, 25), (8, 26), (11, 38), (51, 39),
            (52, 42), (54, 44), (62, 45),
        ],
    ),
    "qpsk-r34": (
        (
            39, 41, 42, 44, 46, 47, 48, 50, 51, 52, 53, 54, 55, 56, 58, 59, 60, 61,
            63, 3, 6, 8, 9, 10, 12, 13, 14, 16, 17, 19, 20, 22, 23, 24, 25, 26,
        ),
        [
            (1, 20), (2, 22), (4, 23), (5, 24), (11, 25), (15, 26), (18, 39), (45, 41),
            (49, 42), (62, 44),
        ],
    ),
    "qpsk-r56": (
        (
            38, 39, 40, 42, 44, 46, 47, 48, 50, 51, 53, 54, 55, 56, 58, 59, 60, 61,
            62, 63, 2, 3, 5, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20,
            22, 23, 24, 26,
        ),
        [
            (1, 23), (4, 24), (13, 26), (45, 38), (49, 39), (52, 40),
        ],
    ),
    "16qam-r12": (
        (
            40, 45, 46, 47, 50, 51, 52, 53, 60, 62, 1, 3, 5, 9, 11, 12, 14, 17,
            19, 20, 22, 23, 25, 26,
        ),
        [
            (2, 14), (4, 17), (6, 19), (8, 20), (10, 22), (13, 23), (54, 25), (55, 26),
            (56, 40), (58, 45), (59, 46), (61, 47), (63, 50),
        ],
    ),
    "16qam-r23": (
        (
            38, 39, 42, 45, 47, 48, 49, 50, 53, 55, 56, 58, 59, 60, 61, 63, 3, 8,
            9, 10, 11, 12, 13, 14, 15, 19, 20, 22, 23, 24, 25, 26,
        ),
        [
            (1, 19), (2, 20), (4, 22), (5, 23), (6, 24), (16, 25), (17, 26), (51, 38),
            (52, 39), (54, 42), (62, 45),
        ],
    ),
    "16qam-r34": (
        (
            38, 40, 42, 44, 45, 46, 47, 49, 50, 51, 54, 55, 56, 58, 59, 61, 62, 63,
            3, 5, 6, 8, 9, 10, 11, 13, 14, 17, 18, 19, 20, 22, 23, 24, 25, 26,
        ),
        [
            (1, 20), (2, 22), (4, 23), (12, 24), (15, 25), (16, 26), (48, 38), (52, 40),
            (53, 42), (60, 44),
        ],
    ),
    "16qam-r56": (
        (
            38, 39, 40, 42, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 56, 58, 59,
            60, 62, 63, 2, 3, 4, 5, 6, 9, 11, 13, 14, 15, 16, 17, 18, 19, 20,
            23, 24, 25, 26,
        ),
        [
            (1, 23), (8, 24), (10, 25), (12, 26), (22, 38), (55, 39), (61, 40),
        ],
    ),
    "64qam-r12": (
        (
            39, 40, 42, 44, 45, 46, 47, 51, 52, 53, 55, 58, 61, 62, 63, 1, 6, 9,
            10, 14, 19, 22, 24, 26,
        ),
        [
            (2, 14), (3, 19), (4, 22), (5, 24), (8, 26), (11, 39), (12, 40), (13, 42),
            (54, 44), (56, 45), (59, 46), (60, 47),
        ],
    ),
    "64qam-r23": (
        (
            46, 48, 49, 50, 52, 54, 55, 56, 59, 60, 61, 62, 63, 1, 2, 3, 4, 5,
            6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 26,
        ),
        [
            (47, 23), (51, 24), (53, 26), (58, 46),
        ],
    ),
    "64qam-r34": (
        (
            39, 41, 44, 45, 46, 47, 48, 49, 51, 52, 53, 55, 56, 58, 59, 60, 61, 63,
            2, 4, 5, 6, 10, 11, 12, 15, 16, 17, 18, 19, 20, 22, 23, 24, 25, 26,
        ),
        [
            (1, 20), (3, 22), (8, 23), (9, 24), (13, 25), (14, 26), (50, 39), (54, 41),
            (62, 44),
        ],
    ),
    "64qam-r56": (
        (
            39, 40, 41, 42, 44, 45, 46, 47, 48, 49, 51, 52, 53, 54, 56, 58, 59, 60,
            62, 63, 1, 2, 3, 4, 5, 6, 9, 10, 11, 14, 15, 16, 17, 18, 19, 20,
            23, 24, 25, 26,
        ),
        [
            (8, 23), (12, 24), (13, 25), (22, 26), (50, 39), (55, 40), (61, 41),
        ],
    ),
}

# pair -> PhyConfig.fingerprint() at the default scrambler seed
FINGERPRINTS = {
    "bpsk-r12": "0a1205f4f9b731d5",
    "bpsk-r23": "9d54e4282dd44b73",
    "bpsk-r34": "55bcf31454e51270",
    "bpsk-r56": "961281f1123f2fa1",
    "qpsk-r12": "e338a5916e69049f",
    "qpsk-r23": "3f5c4c896c2cccda",
    "qpsk-r34": "ab79a6d2dad9faae",
    "qpsk-r56": "348b373566678f9f",
    "16qam-r12": "6da37ae5173a8f5b",
    "16qam-r23": "ac77b405fc492217",
    "16qam-r34": "895c6de06e90d107",
    "16qam-r56": "e194da793acfd676",
    "64qam-r12": "ec6249d9c3143168",
    "64qam-r23": "27ca450ffcac9d79",
    "64qam-r34": "089b29c424bd0541",
    "64qam-r56": "d285ad1134ddcf59",
}

TX_GRIDS_SYMBOLS = 300
TX_GRIDS_SEED = 17
TX_GRIDS_GOLDEN = {
    "64qam-r34": "b12bdbe7b031c01d1587771a47822cb45ad9bc2b2fab9292e26490c96ed65b41",
    "16qam-r12": "5a0a5898369007660193cdd1a2a9e380e65d628f9f640b81055d6ff67d87ad50",
    "bpsk-r12": "ca86179ffd4f89d2f45169ccf2fbfe4aa28ade23e99c078eb17bd19b98b73dc7",
}

CLI_GOLDEN = {
    "emulate": "24103e036cf5e51b1a3b599084e27abb204025469cfc121068e769f33ba030b3",
    "sweep": "6102d97d150e81d0686541ae0f4de937808e4c37f88dfce0edbd2a957edb8260",
}


def sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def files_digest(paths) -> str:
    return sha(*(p.name.encode() + b"\0" + p.read_bytes() for p in paths))


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def golden_setup(request):
    return request.param, EmulationSetup.build(CONFIGS[request.param])


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_fingerprint(name):
    assert PAIRS[name].fingerprint() == FINGERPRINTS[name]


def test_default_fingerprint():
    assert PhyConfig().fingerprint() == FINGERPRINTS["64qam-r34"]


@pytest.mark.parametrize("name", sorted(SELECTIONS))
def test_certified_selection(name):
    setup = EmulationSetup.build(PAIRS[name])
    assert (setup.chosen, setup.swaps) == SELECTIONS[name]


@pytest.mark.parametrize("name", sorted(TX_GRIDS_GOLDEN))
def test_tx_grids_bytes(name):
    cfg = PAIRS[name]
    rng = np.random.default_rng(TX_GRIDS_SEED)
    bits = rng.integers(0, 2, TX_GRIDS_SYMBOLS * cfg.n_dbps, dtype=np.uint8)
    assert sha(tx_grids(bits, cfg).astype("<c16").tobytes()) == TX_GRIDS_GOLDEN[name]


def test_sweep_bytes(golden_setup, tmp_path):
    name, setup = golden_setup
    spec = ExperimentSpec(
        cfg=setup.cfg, n_symbols=200, systems=SWEEP_SYSTEMS, master_seed=SWEEP_SEED
    )
    rows = run_sweep(spec, setup)
    written = emit_plotdata(rows, tmp_path)
    assert sha(csv_text(rows).encode(), files_digest(written).encode()) == GOLDEN[name]["sweep"]


def test_sender_and_link_bytes(golden_setup):
    name, setup = golden_setup
    symbols = gaussian_symbols(1000, np.random.default_rng(TARGET_SEED))
    targets = TargetSymbols.unit_power(symbols, setup.cfg)
    plan = sender_invert(targets, setup)
    soft, record = emulated_link(targets, LINK_SNR_DB, LINK_SEED, setup, mode="soft")
    hard, _ = emulated_link(targets, LINK_SNR_DB, LINK_SEED, setup, mode="hard")
    got = {
        "bitstream": sha(plan.bitstream.astype(np.uint8).tobytes()),
        "incoming_states": sha(plan.incoming_states.astype("<i8").tobytes()),
        "soft_estimates": sha(soft.astype("<c16").tobytes()),
        "hard_estimates": sha(hard.astype("<c16").tobytes()),
        "tx_frame": sha(record.tx_frame.astype("<c16").tobytes()),
    }
    assert got == {k: GOLDEN[name][k] for k in got}


def test_cli_emulate_and_sweep_bytes(tmp_path, capsys):
    emu = tmp_path / "emu"
    rc = main(["emulate", "--symbols", "300", "--snr", "12", "--seed", "5", "--out", str(emu)])
    assert rc == 0
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(
        "[phy]\nmodulation = qpsk\ncoding_rate = 1/2\n"
        "[sweep]\nsnr_list = 0 10 20\nn_symbols = 200\nsystems = ideal_analog emulated\n"
    )
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfgfile), "--seed", "3", "--out", str(out)])
    assert rc == 0
    plot = sorted((out / "plotdata").iterdir())
    got = {
        "emulate": files_digest([emu / "estimates.bin", emu / "tx_waveform.bin"]),
        "sweep": files_digest([out / "sweep.csv", *plot]),
    }
    assert got == CLI_GOLDEN


TINY_TRAIN = TrainConfig(
    master_seed=7,
    batch_size=4,
    image_batch_size=8,
    stage1_epochs=2,
    stage1_waveforms=8,
    stage1_val_waveforms=4,
    stage1_ofdm_symbols=2,
    stage2_epochs=2,
    stage2_records=8,
    stage2_ofdm_symbols=2,
    stage3_max_cycles=1,
    stage3_phase_a_epochs=1,
    stage3_images=16,
    refresh_batch_count=4,
    stage3_refresh_epochs=1,
)

LEARNED_GOLDEN = {
    "stage1_trace": [0.3081446079632994, 0.3064503064827915],
    "stage1_metrics": {
        "val_mse_uncompensated": 0.24651945035258063,
        "val_mse_compensated": 0.24535897682324506,
        "improvement": 0.0047074319193711545,
    },
    "stage2_trace": [0.03026668380255347, 0.030588989504592462],
    "stage2_metrics": {
        "noise_gain": 0.8256672998277481,
        "noise_floor": 0.03627720563883691,
        "sigma_sq": 0.02610989256976835,
        "held_out_mse": 0.05492509263069404,
        "held_out_bound": 0.08373029310222566,
        "held_out_sigma_sq": 0.026584661759903996,
        "held_out_floor": 0.030560969582417656,
        "within_bound": True,
    },
    "stage3_trace": [
        (0, "probe", 0.16539791157034944),
        (1, "A", 0.18777308470730683),
        (1, "B", 0.10434278199030661),
        (1, "probe", 0.14610674792189338),
    ],
    "stage3_metrics": {
        "initial_joint_loss": 0.16539791157034944,
        "final_joint_loss": 0.14610674792189338,
        "cycles": 1,
        "refresh_fidelity_pre": 0.06951019622244836,
        "refresh_fidelity_post": 0.06916612890623934,
    },
    "zero_shot_trace": [0.17574508710448575],
    "eval_image_mse": 0.20103939350765188,
}


def test_learned_outputs(default_setup):
    result = run_training_pipeline(default_setup, TINY_TRAIN)
    images = glyph_images(8, np.random.default_rng(5))
    evaluation = evaluate_image_link(
        result.jscc, default_setup, 12.0, 3, images, compensator=result.compensator
    )
    got = {
        "stage1_trace": result.stage1.loss_trace,
        "stage1_metrics": result.stage1.metrics,
        "stage2_trace": result.stage2.loss_trace,
        "stage2_metrics": result.stage2.metrics,
        "stage3_trace": result.stage3.loss_trace,
        "stage3_metrics": result.stage3.metrics,
        "zero_shot_trace": result.zero_shot.loss_trace,
        "eval_image_mse": evaluation["image_mse"],
    }
    for key, want in LEARNED_GOLDEN.items():
        assert got[key] == pytest.approx(want, rel=1e-9), key
