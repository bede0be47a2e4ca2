"""File formats: waveform frames, model parameters, loss traces and
training checkpoints.

Frames store complex samples as a small header plus interleaved 64-bit
little-endian I/Q pairs.  Model files carry an architecture fingerprint
so parameters can never be loaded into the wrong network shape.  Both
formats are deliberately dumb: fixed headers, raw floats, no compression.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .config import read_bounded
from .errors import ConfigError, FramingError

FRAME_MAGIC = b"OFRM"
FRAME_VERSION = 1
_FRAME_HEADER = struct.Struct("<4sIQ")

MODEL_MAGIC = b"OMDL"
MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<4sI16sQ")


def _payload(blob: bytes, header: struct.Struct, magic: bytes, version: int, item_size: int):
    """Check a blob's magic, version and payload length (``item_size`` bytes
    per count, the header's last field); return the other header fields
    and the payload as floats."""
    if len(blob) < header.size:
        raise FramingError(f"{len(blob)} bytes, shorter than the {header.size}-byte header")
    got_magic, got_version, *fields = header.unpack_from(blob)
    if got_magic != magic:
        raise FramingError(f"bad magic {got_magic!r}, expected {magic!r}")
    if got_version != version:
        raise FramingError(f"unsupported {magic.decode()} version {got_version}")
    payload, want = len(blob) - header.size, item_size * fields[-1]
    if payload != want:
        raise FramingError(f"payload has {payload} bytes, header promised {want}")
    return fields, np.frombuffer(blob, dtype="<f8", offset=header.size)


def frame_from_bytes(blob: bytes) -> np.ndarray:
    _, body = _payload(blob, _FRAME_HEADER, FRAME_MAGIC, FRAME_VERSION, 16)
    if not np.all(np.isfinite(body)):
        raise FramingError("frame holds a non-finite sample")
    return body[0::2] + 1j * body[1::2]


def write_frame(path: str | Path, samples: np.ndarray) -> None:
    """Write a complex sample vector in the flat frame format, the header
    and then the samples' own buffer: a complex128 frame is not copied."""
    samples = np.asarray(samples, dtype="<c16").ravel()
    with Path(path).open("wb") as fh:
        fh.write(_FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, samples.size))
        fh.write(samples.data)


def read_input(path: str | Path, limit: int) -> bytes:
    """The bytes of an input file: a FramingError if it cannot be read, a
    ConfigError if it has more than ``limit`` bytes (see
    :func:`~ofdmemu.config.read_bounded`)."""
    try:
        return read_bounded(path, limit)
    except OSError as exc:
        raise FramingError(f"cannot read {path}: {exc.strerror}") from None


def read_frame(path: str | Path, max_samples: int) -> np.ndarray:
    """A frame file's samples; more than ``max_samples`` is a ConfigError.
    A FramingError about the file's contents names the file."""
    blob = read_input(path, _FRAME_HEADER.size + 16 * max_samples)
    try:
        return frame_from_bytes(blob)
    except FramingError as exc:
        raise FramingError(f"{path}: {exc}") from None


def write_model(path: str | Path, model) -> None:
    """Parameters in declaration order behind an architecture fingerprint."""
    state = model.state_vector().astype("<f8")
    fp = model.architecture_fingerprint().encode("ascii")
    header = _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, fp, state.size)
    Path(path).write_bytes(header + state.tobytes())


def read_model_into(path: str | Path, model) -> None:
    """Load parameters, refusing on any fingerprint or size mismatch and
    on a NaN or infinite parameter, with an error that names the file.
    The read stops one byte past the size ``model`` needs."""
    try:
        blob = read_input(path, _MODEL_HEADER.size + 8 * model.parameter_count())
    except ConfigError as exc:
        # too large for this model: a bad model file, like any other mismatch
        raise FramingError(str(exc)) from None
    try:
        (fp, count), body = _payload(blob, _MODEL_HEADER, MODEL_MAGIC, MODEL_VERSION, 8)
    except FramingError as exc:
        raise FramingError(f"{path}: {exc}") from None
    want = model.architecture_fingerprint().encode("ascii")
    if fp != want:
        raise FramingError(
            f"{path}: architecture fingerprint {fp!r} does not match model ({want.decode()})"
        )
    if count != model.parameter_count():
        raise FramingError(
            f"{path}: model file holds {count} parameters, model needs {model.parameter_count()}"
        )
    if not np.all(np.isfinite(body)):
        raise FramingError(f"{path} holds a non-finite parameter")
    model.load_state_vector(body.copy())


def write_loss_trace(path: str | Path, trace) -> None:
    """Loss trace rows as CSV: (cycle, phase, loss) or (epoch, loss)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if trace and isinstance(trace[0], (tuple, list)):
            writer.writerow(["cycle", "phase", "loss"])
            for row in trace:
                writer.writerow(list(row))
        else:
            writer.writerow(["epoch", "loss"])
            for i, v in enumerate(trace):
                writer.writerow([i, v])


def save_checkpoint(directory: str | Path, models: dict, manifest: dict) -> None:
    """Named models to .model files plus a key=value manifest.

    ``manifest`` values must render round-trippably with str(); model
    fingerprints are appended automatically.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = dict(manifest)
    for name, model in models.items():
        write_model(directory / f"{name}.model", model)
        entries[f"fingerprint_{name}"] = model.architecture_fingerprint()
    lines = [f"{k}={entries[k]}" for k in sorted(entries)]
    (directory / "checkpoint.txt").write_text("\n".join(lines) + "\n")
