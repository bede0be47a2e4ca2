import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ofdmemu.errors import FramingError
from ofdmemu.framefile import (
    FRAME_MAGIC,
    MODEL_MAGIC,
    MODEL_VERSION,
    frame_bytes,
    frame_from_bytes,
    read_frame,
    read_model_into,
    save_checkpoint,
    write_frame,
    write_loss_trace,
    write_model,
)
from ofdmemu.nn.layers import Dense


def test_frame_roundtrip_bytes(rng):
    z = rng.normal(size=50) + 1j * rng.normal(size=50)
    blob = frame_bytes(z)
    assert blob.startswith(FRAME_MAGIC)
    assert np.array_equal(frame_from_bytes(blob), z)


def test_frame_roundtrip_file(tmp_path, rng):
    z = rng.normal(size=17) + 1j * rng.normal(size=17)
    p = tmp_path / "wave.bin"
    write_frame(p, z)
    assert np.array_equal(read_frame(p), z)


def test_frame_corruption_detected(rng):
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    blob = frame_bytes(z)
    with pytest.raises(FramingError):
        frame_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FramingError):
        frame_from_bytes(blob[:-8])  # truncated payload
    with pytest.raises(FramingError):
        frame_from_bytes(blob[:6])  # truncated header
    with pytest.raises(FramingError):
        frame_from_bytes(blob + b"\0")  # one stray byte
    with pytest.raises(FramingError):
        frame_from_bytes(blob[:-3])  # tail cut inside a float


def test_model_roundtrip(tmp_path, rng):
    a = Dense(5, 3, rng)
    b = Dense(5, 3, np.random.default_rng(77))
    p = tmp_path / "dense.model"
    write_model(p, a)
    assert not np.array_equal(b.state_vector(), a.state_vector())
    read_model_into(p, b)
    assert np.array_equal(b.state_vector(), a.state_vector())


def test_model_fingerprint_mismatch(tmp_path, rng):
    a = Dense(5, 3, rng)
    wrong = Dense(4, 3, rng)
    p = tmp_path / "dense.model"
    write_model(p, a)
    with pytest.raises(FramingError):
        read_model_into(p, wrong)


def test_model_payload_length_checked(tmp_path, rng):
    a = Dense(5, 3, rng)
    p = tmp_path / "dense.model"
    write_model(p, a)
    blob = p.read_bytes()
    for bad in (blob + b"\0", blob[:-3], blob[:-8]):
        p.write_bytes(bad)
        with pytest.raises(FramingError):
            read_model_into(p, a)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_model_with_a_non_finite_parameter_rejected(tmp_path, rng, value):
    a = Dense(5, 3, rng)
    state = a.state_vector()
    state[-1] = value
    a.load_state_vector(state)
    p = tmp_path / "dense.model"
    write_model(p, a)
    b = Dense(5, 3, np.random.default_rng(77))
    before = b.state_vector()
    with pytest.raises(FramingError, match="dense.model holds a non-finite parameter"):
        read_model_into(p, b)
    assert np.array_equal(b.state_vector(), before)


# Readers on truncated or garbage input: they either succeed or raise
# FramingError, never anything else.

READER_PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def corrupted(blob: bytes, prefix: bytes = b""):
    """Truncations of ``blob``, ``blob`` plus junk, and garbage after ``prefix``."""
    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
        st.binary(min_size=1, max_size=24).map(lambda junk: blob + junk),
        st.binary(max_size=2 * len(blob)).map(lambda junk: prefix + junk),
    )


FRAME_BLOB = frame_bytes(np.arange(4) * (1 + 2j))


@READER_PROPERTY
@given(corrupted(FRAME_BLOB, FRAME_MAGIC + FRAME_BLOB[4:8]))
def test_frame_reader_rejects_only_with_framing_error(blob):
    try:
        frame_from_bytes(blob)
    except FramingError:
        pass


@READER_PROPERTY
@given(data=st.data())
def test_model_reader_rejects_only_with_framing_error(tmp_path, data):
    model = Dense(3, 2, np.random.default_rng(0))
    path = tmp_path / "dense.model"
    write_model(path, model)
    prefix = MODEL_MAGIC + MODEL_VERSION.to_bytes(4, "little")
    path.write_bytes(data.draw(corrupted(path.read_bytes(), prefix)))
    try:
        read_model_into(path, model)
    except FramingError:
        pass


def test_loss_trace_formats(tmp_path):
    flat = tmp_path / "flat.csv"
    write_loss_trace(flat, [0.5, 0.25, 0.125])
    lines = flat.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 4

    staged = tmp_path / "staged.csv"
    write_loss_trace(staged, [(0, "probe", 1.0), (1, "A", 0.5)])
    lines = staged.read_text().strip().splitlines()
    assert lines[0] == "cycle,phase,loss"
    assert lines[1].startswith("0,probe,")


def test_checkpoint_roundtrip(tmp_path, rng):
    a = Dense(6, 2, rng)
    b = Dense(2, 6, rng)
    save_checkpoint(tmp_path / "ckpt", {"enc": a, "dec": b}, {"note": "x", "seed": 3})
    enc2 = Dense(6, 2, np.random.default_rng(1))
    dec2 = Dense(2, 6, np.random.default_rng(2))
    read_model_into(tmp_path / "ckpt" / "enc.model", enc2)
    read_model_into(tmp_path / "ckpt" / "dec.model", dec2)
    assert np.array_equal(enc2.state_vector(), a.state_vector())
    assert np.array_equal(dec2.state_vector(), b.state_vector())
    assert (tmp_path / "ckpt" / "checkpoint.txt").read_text() == (
        f"fingerprint_dec={b.architecture_fingerprint()}\n"
        f"fingerprint_enc={a.architecture_fingerprint()}\n"
        "note=x\n"
        "seed=3\n"
    )
