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

from .errors import FramingError

FRAME_MAGIC = b"OFRM"
FRAME_VERSION = 1
_FRAME_HEADER = struct.Struct("<4sIQ")

MODEL_MAGIC = b"OMDL"
MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<4sI16sQ")


def frame_bytes(samples: np.ndarray) -> bytes:
    """Serialize a complex sample vector to the flat frame format."""
    samples = np.asarray(samples, dtype=np.complex128).ravel()
    inter = np.empty(2 * samples.size, dtype="<f8")
    inter[0::2] = samples.real
    inter[1::2] = samples.imag
    return _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, samples.size) + inter.tobytes()


def frame_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < _FRAME_HEADER.size:
        raise FramingError("frame blob shorter than its header")
    magic, version, count = _FRAME_HEADER.unpack_from(blob)
    if magic != FRAME_MAGIC:
        raise FramingError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FramingError(f"unsupported frame version {version}")
    payload = len(blob) - _FRAME_HEADER.size
    if payload != 16 * count:
        raise FramingError(f"frame payload has {payload} bytes, header promised {16 * count}")
    body = np.frombuffer(blob, dtype="<f8", offset=_FRAME_HEADER.size)
    return body[0::2] + 1j * body[1::2]


def write_frame(path: str | Path, samples: np.ndarray) -> None:
    Path(path).write_bytes(frame_bytes(samples))


def read_input(path: str | Path) -> bytes:
    """The bytes of an input file; a path that cannot be read is a FramingError."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FramingError(f"cannot read {path}: {exc.strerror}") from None


def read_frame(path: str | Path) -> np.ndarray:
    return frame_from_bytes(read_input(path))


def write_model(path: str | Path, model) -> None:
    """Parameters in declaration order behind an architecture fingerprint."""
    state = model.state_vector().astype("<f8")
    fp = model.architecture_fingerprint().encode("ascii")
    header = _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, fp, state.size)
    Path(path).write_bytes(header + state.tobytes())


def read_model_into(path: str | Path, model) -> None:
    """Load parameters, refusing on any fingerprint or size mismatch."""
    blob = read_input(path)
    if len(blob) < _MODEL_HEADER.size:
        raise FramingError("model blob shorter than its header")
    magic, version, fp, count = _MODEL_HEADER.unpack_from(blob)
    if magic != MODEL_MAGIC:
        raise FramingError(f"bad model magic {magic!r}")
    if version != MODEL_VERSION:
        raise FramingError(f"unsupported model version {version}")
    want = model.architecture_fingerprint().encode("ascii")
    if fp != want:
        raise FramingError(
            f"architecture fingerprint {fp!r} does not match model ({want.decode()})"
        )
    payload = len(blob) - _MODEL_HEADER.size
    if payload != 8 * count or count != model.parameter_count():
        raise FramingError(
            f"model payload has {payload} bytes, header promised {8 * count}, "
            f"model needs {8 * model.parameter_count()}"
        )
    model.load_state_vector(np.frombuffer(blob, dtype="<f8", offset=_MODEL_HEADER.size).copy())


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
