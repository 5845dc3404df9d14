"""Outside-in span tracer for the wearauth data plane.

The tracer never edits the package.  It replaces each public function at the
name its caller binds (``sim`` imports most of the data plane by name,
``minutiae`` imports ``binarize`` and ``thin`` by name, ``present`` and
``codec`` are reached through module attributes) with a wrapper that records
a span, and restores the originals on ``uninstall``.  Spans are kept in
memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from wearauth.channel import IntegrityError, SyncError

# (module that binds the name, attribute, span name).  Several bindings of one
# function share a span name: each caller reaches the function through its own.
TARGETS = (
    ("wearauth.sim", "run_scenario", "sim.run_scenario"),
    ("wearauth.sim", "derive_activities", "design_space.derive_activities"),
    ("wearauth.sim", "energy_breakdown", "energy.energy_breakdown"),
    ("wearauth.sim", "read_pgm", "fingerprint.read_pgm"),
    ("wearauth.sim", "extract_template", "fingerprint.extract_template"),
    ("wearauth.fingerprint.minutiae", "extract_template", "fingerprint.extract_template"),
    ("wearauth.fingerprint.enhance", "normalize", "fingerprint.normalize"),
    ("wearauth.fingerprint.enhance", "orientation_field", "fingerprint.orientation_field"),
    ("wearauth.fingerprint.enhance", "ridge_wavelength", "fingerprint.ridge_wavelength"),
    ("wearauth.fingerprint.enhance", "gabor_enhance", "fingerprint.gabor_enhance"),
    ("wearauth.fingerprint.minutiae", "binarize", "fingerprint.binarize"),
    ("wearauth.fingerprint.minutiae", "thin", "fingerprint.thin"),
    ("wearauth.codec", "encode", "codec.encode"),
    ("wearauth.codec", "decode", "codec.decode"),
    ("wearauth.sim", "match", "matcher.match"),
    ("wearauth.sim", "load_gallery", "matcher.load_gallery"),
    ("wearauth.matcher", "load_gallery", "matcher.load_gallery"),
    ("wearauth.present", "ctr_crypt", "present.ctr_crypt"),
    ("wearauth.sim", "encode_frame", "channel.encode_frame"),
    ("wearauth.sim", "transmit", "channel.transmit"),
    ("wearauth.sim", "highpass_bias", "channel.highpass_bias"),
    ("wearauth.sim", "receive_decode", "channel.receive_decode"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _count(name, args, result, counts):
    """Work counters taken at the same boundary as the span."""
    if name == "present.ctr_crypt":
        counts["present.ctr_bytes"] += len(args[0])
    elif name == "matcher.match":
        counts["matcher.pair_work"] += len(args[0]) * len(args[1])
        counts["matcher.accepts"] += int(result.accepted)
    elif name == "channel.transmit":
        counts["channel.samples"] += result.samples.size
    elif name == "sim.run_scenario":
        counts["sim.requests"] += result.requests_attempted
    elif name == "fingerprint.extract_template":
        counts["fingerprint.minutiae_out"] += len(result)


class Tracer:
    """Spans ``(name, start_ns, end_ns, parent, op)`` plus per-boundary counts.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.  Only
    one thread calls into the package, so a plain stack gives the nesting.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, object]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.frame_failures = 0
        self.op: object = None
        self._stack: list[list[int]] = []   # [span index, child ns]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0]
            self.spans.append((name, 0, 0, parent, self.op))
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except (SyncError, IntegrityError):
                if name == "channel.receive_decode":
                    self.frame_failures += 1
                raise
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[frame[0]] = (name, start, end, parent, self.op)
                duration = end - start
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
            _count(name, args, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            # import_module returns the submodule: the attribute
            # ``wearauth.fingerprint.enhance`` is the function of that name.
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def active(self, op):
        """Spans recorded inside the block belong to ``op``."""
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def missing(self, expected: tuple[str, ...]) -> list[str]:
        """Expected span names that recorded nothing."""
        return [name for name in expected if self.calls.get(name, 0) == 0]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
