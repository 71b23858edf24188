"""Outside-in span tracing of the marketval layers.

`Recorder.install` wraps the public functions listed in `TRACED` and rebinds
every module attribute that refers to them, so calls made through a
by-name import (``from .ols import fit_ols`` in `cli` and `selection`) are
recorded as well as calls through the defining module.  Nothing under
``src/`` is edited; the wrappers live only in the traced process.

A span is ``[name, start, end, parent, info]``: times are
``time.monotonic()`` seconds (CLOCK_MONOTONIC on Linux, shared by every
process on the host, so a parent can compare them with its own spawn
time), `parent` is the index of the enclosing span or -1, and `info` is an
optional value a probe extracts from the call's result.
"""
from __future__ import annotations

import functools
import sys
import time

# Layer -> public callables whose calls are recorded.  "Cls.meth" names a method.
TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "ingest": ("parse_players_csv", "apply_filters"),
    "features": ("encode_dataset", "EncodedDataset.select_columns"),
    "numcore": ("qr_pivoted", "least_squares_solve", "solve_from_factors", "unscaled_covariance"),
    "distributions": ("t_two_sided_p", "student_t_quantile", "f_sf", "chi2_sf"),
    "ols": ("fit_ols", "coefficient_table"),
    "selection": ("backward_eliminate",),
    "diagnostics": ("breusch_pagan", "vif", "mape", "plot_series"),
    "report": ("render_summary", "json_dumps", "fit_to_dict", "trace_to_dict",
               "diagnostics_to_dict", "plot_series_csv"),
}
LAYERS = tuple(TRACED)

# Span name -> what to keep from the result (JSON-serialisable).
PROBES = {
    "numcore.qr_pivoted": lambda f: [f.q.shape[0], f.r.shape[1]],  # n, p of the input
    "ingest.parse_players_csv": len,
    "ingest.apply_filters": lambda r: len(r.accepted),
    "features.encode_dataset": lambda d: d.design.cols,
    "selection.backward_eliminate": lambda t: len(t.steps),
    "diagnostics.vif": lambda r: len(r.entries),
}

NAME, START, END, PARENT, INFO = range(5)


class Recorder:
    """Collects spans in memory for one process; `spans` is written out at exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, probe = self.spans, self._stack, time.monotonic, PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[INFO] = probe(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every `TRACED` callable of the already-imported marketval modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "marketval" or n.startswith("marketval."))]
        for layer, names in TRACED.items():
            mod = sys.modules[f"marketval.{layer}"]
            for qual in names:
                cls_name, _, meth = qual.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(f"{layer}.{meth}", cls.__dict__[meth]))
                    continue
                original = getattr(mod, qual)
                traced = self.wrap(f"{layer}.{qual}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s[START]
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = max(reach, b)
        out.append((s[END] - s[START]) - covered)
    return out


def has_ancestor(spans: list[list], i: int, name: str) -> bool:
    j = spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME] == name:
            return True
        j = spans[j][PARENT]
    return False
