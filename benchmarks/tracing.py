"""Spans around the calls between specmm layers, made from outside.

``Tracer.install`` replaces each function a layer exposes to the others
with a wrapper that records a span (name, start, end, parent, size),
wherever specmm has bound that function, so ``saddle._eigh_raw`` and
``domains._eigh_raw`` are caught as well as ``symmat._eigh_raw``.
``uninstall`` puts the originals back. Spans stay in memory; ``summarise``
turns the spans of one pass into per-layer counts, busy time and self
time (a span's duration minus that of its child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute): the boundaries between layers
TARGETS = (
    ("symmat.eigh", "symmat", "_eigh_raw"),
    ("symmat.eigvals", "symmat", "_eigvals_raw"),
    ("saddle.solve", "saddle", "solve_minimax"),
    ("saddle.solve", "saddle", "solve_maximin"),
    ("domains.check", "domains", "SpectraplexPoint.__post_init__"),
    ("domains.check", "domains", "SimplexPoint.__post_init__"),
    ("embed.build", "embed", "build_embedding"),
    ("embed.export", "embed", "sdpa_text"),
    ("embed.lift", "embed", "lift_primal"),
    ("embed.lift", "embed", "lift_dual"),
    ("embed.lift", "embed", "extract_dual"),
    ("embed.lift", "embed", "weak_duality_check"),
    ("classic.exact", "classic", "classic_value_exact"),
    ("files.parse", "files", "parse_instance"),
    ("files.report", "files", "report_from_certificate"),
    ("files.report", "files", "report_to_json"),
    ("files.report", "files", "report_from_json"),
)
# spans whose first argument is a square array: size records its order
SIZED = ("symmat.eigh", "symmat.eigvals")


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.unmeasured: dict[str, list[str]] = {}
        self._wrappers = []
        for name, layer, attr in TARGETS:
            owner, key = self._resolve(layer, attr)
            if owner is None:
                self.unmeasured.setdefault(layer, []).append(f"specmm.{layer}.{attr}")
                continue
            orig = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._wrappers.append((owner, key, orig, self._wrap(name, orig)))

    def _resolve(self, layer, attr):
        owner = self.modules.get(layer)
        *path, key = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, key):
            return None, None
        return owner, key

    def _wrap(self, name, fn):
        # inline rather than through span(): tens of thousands of eigen
        # calls per pass make the context manager's cost show in the
        # callers' self time
        spans, stack = self.spans, self._stack
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    args[0].shape[0] if sized else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        """Bind every wrapper wherever specmm binds the original."""
        mods = [m for k, m in sys.modules.items() if k == "specmm" or k.startswith("specmm.")]
        for owner, key, orig, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._patches.append((owner, key, orig))
                setattr(owner, key, wrapper)
                continue
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one certify."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def take(self) -> list[list]:
        """The spans recorded so far; the recorder starts afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarise(spans: list[list]) -> dict:
    """Per span name: calls, busy seconds, self seconds and sum of size^3."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "order3": 0})
    for k, (name, start, end, _, size) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["busy"] += end - start
        rec["self"] += end - start - child[k]
        rec["order3"] += size ** 3
    return dict(out)
