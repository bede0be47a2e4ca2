"""In-memory span recorder that wraps ofdmemu's public functions from outside.

The traced benchmark run patches each public function listed in
``TRACED`` in every ``ofdmemu`` module that bound it (``from .phy import
tx_chain`` makes ``link.tx_chain`` a separate binding of the same
object), records one span per call, and restores every binding
afterwards.  The untraced run never installs anything.

A span is (id, parent id, name, start, end, run id, attributes).  Spans
stay in memory until the run ends and are then written as JSON lines.
Self time is a span's duration minus the durations of its direct
children; calls nest strictly in one thread, so the children never
overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _plan_attrs(args, kwargs, out):
    return {
        "ofdm_symbols": out.ofdm_symbols,
        "targets": out.target_count,
        "clip_count": out.clip_count,
    }


def _frame_attrs(args, kwargs, out):
    return {"ofdm_symbols": out.ofdm_symbol_count}


def _viterbi_attrs(args, kwargs, out):
    return {"steps": int(out.size)}


def _conv2d_attrs(args, kwargs, out):
    x, weight = args[0], args[1]
    b, h, w, cin = x.data.shape
    kh, kw, _, cout = weight.data.shape
    # every tap of the kernel is one (B*H*W, Cin) x (Cin, Cout) matmul
    return {
        "x_shape": [b, h, w, cin],
        "kernel": [kh, kw],
        "flop": 2 * b * h * w * cin * cout * kh * kw,
    }


def _sample_attrs(args, kwargs, out):
    # the generator object tells stage-3 phase A draws from phase B draws
    return {"rng": id(args[1] if len(args) > 1 else kwargs["rng"])}


# span name -> (module, attribute path, attribute function or None)
TRACED = {
    "inversion.build_symbol_system": ("ofdmemu.inversion", "build_symbol_system", None),
    "inversion.certify_subset": ("ofdmemu.inversion", "certify_subset", None),
    "gf2.rank": ("ofdmemu.gf2", "rank", None),
    "gf2.solver_factor": ("ofdmemu.gf2", "Gf2Solver.__init__", None),
    "gf2.solve": ("ofdmemu.gf2", "Gf2Solver.solve", None),
    "link.emulated_link": ("ofdmemu.link", "emulated_link", None),
    "link.sender_invert": ("ofdmemu.link", "sender_invert", _plan_attrs),
    "link.reference_waveform": ("ofdmemu.link", "reference_waveform", None),
    "link.awgn": ("ofdmemu.link", "awgn", None),
    "link.receiver_recover_soft": ("ofdmemu.link", "receiver_recover_soft", None),
    "phy.scramble": ("ofdmemu.phy", "scramble", None),
    "phy.tx_chain": ("ofdmemu.phy", "tx_chain", _frame_attrs),
    "phy.rx_chain": ("ofdmemu.phy", "rx_chain", None),
    "phy.viterbi_decode": ("ofdmemu.phy", "viterbi_decode", _viterbi_attrs),
    "nn.conv2d": ("ofdmemu.nn.autodiff", "conv2d", _conv2d_attrs),
    "nn.backward": ("ofdmemu.nn.autodiff", "Tensor.backward", None),
    "training.curriculum_sample": ("ofdmemu.training", "Curriculum.sample", _sample_attrs),
}


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span around a call made from the benchmark's own code."""
        sid = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, None)

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: float, attrs: dict | None) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, t0, t1, self.run_id, attrs))

    def _wrapper(self, fn, name: str, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open()
            t0 = time.perf_counter()
            attrs = None
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            else:
                if attrs_fn is not None:
                    attrs = attrs_fn(args, kwargs, out)
                return out
            finally:
                tracer._close(sid, name, t0, attrs)

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ofdmemu"]
        for name, (module_name, path, attrs_fn) in TRACED.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrapper(original, name, attrs_fn)
            if outer:  # a method: one binding, on the class
                self._patch(owner, attr, original, wrapped)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every binding patched by ``install``."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, run_id, attrs in sorted(self.spans):
                line = {"id": sid, "parent": parent, "name": name, "start": t0,
                        "end": t1, "run": run_id}
                if attrs:
                    line["attrs"] = attrs
                fh.write(json.dumps(line) + "\n")


class SpanTable:
    """Spans of one run id, indexed for self-time and ancestry queries."""

    def __init__(self, spans: list[tuple], run_id: str):
        self.rows = [s for s in spans if s[5] == run_id]
        self.by_id = {s[0]: s for s in self.rows}
        child_time: dict[int, float] = {}
        for sid, parent, _, t0, t1, _, _ in self.rows:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.self_time = {s[0]: (s[4] - s[3]) - child_time.get(s[0], 0.0) for s in self.rows}

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.rows if s[2] == name]

    def total(self, name: str) -> float:
        """Inclusive seconds of all spans with this name."""
        return sum(s[4] - s[3] for s in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s[0]] for s in self.named(name))

    def ancestor_names(self, span: tuple) -> set[str]:
        names = set()
        parent = span[1]
        while parent is not None and parent in self.by_id:
            names.add(self.by_id[parent][2])
            parent = self.by_id[parent][1]
        return names

    def inside(self, span: tuple, outer: tuple) -> bool:
        return outer[3] <= span[3] and span[4] <= outer[4]

    def self_profile(self) -> dict[str, float]:
        """Self seconds per span name, largest first."""
        prof: dict[str, float] = {}
        for s in self.rows:
            prof[s[2]] = prof.get(s[2], 0.0) + self.self_time[s[0]]
        return dict(sorted(prof.items(), key=lambda kv: -kv[1]))
