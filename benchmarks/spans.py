"""Spans around calls into rdr_lab modules, installed from outside the
program by rebinding module attributes for the length of one pass.

Spans are kept in memory.  Each records its name, start, end and the span it
was opened in, so self time is a span's duration minus its direct children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []

    def wrap(self, module, attr: str, name: str, keep=None):
        """Rebind ``module.attr`` to a wrapper that records a span ``name``.

        ``keep(args, result)``, when given, stores what the span should
        remember about the call.  A function imported into several modules
        is one boundary with one binding per module; wrap each binding.  A
        binding the module no longer has is skipped, so its span reads as
        never called.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if keep is not None:
                span.info = keep(args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def outermost(self, names) -> list:
        """Spans named in ``names`` that are not inside another such span."""
        names = set(names)
        out = []
        for span in self.spans:
            if span.name not in names:
                continue
            p = span.parent
            while p is not None and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p is None:
                out.append(span)
        return out

    def total(self, names) -> float:
        return sum((s.duration for s in self.outermost(names)), 0.0)

    def self_time(self, name: str) -> float:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return sum(s.duration - child[i] for i, s in enumerate(self.spans)
                   if s.name == name)

    def count(self, name: str) -> int:
        return len(self.outermost([name]))


# the set-up calls of a pass: problem build and the spectral oracle
SETUP_SPANS = ("build_problem", "svd_small", "spectral_scalars")


def wrap_untraced(rec: Recorder, rdr):
    """Spans on the set-up boundaries and on each trial: a few hundred calls
    per pass, against milliseconds of work in each trial."""
    rec.wrap(rdr.harness, "build_problem", "build_problem")
    for mod in (rdr.harness, rdr.linalg, rdr.problems, rdr.theory):
        rec.wrap(mod, "svd_small", "svd_small")
    for mod in (rdr.harness, rdr.linalg):
        rec.wrap(mod, "spectral_scalars", "spectral_scalars")
    rec.wrap(rdr.harness, "run", "run", keep=lambda args, res: (
        args[0], args[1], res.iterations, res.row_actions))


def wrap_all(rec: Recorder, rdr):
    """Spans on every boundary the harness and problems call into."""
    wrap_untraced(rec, rdr)
    rec.wrap(rdr.harness, "run_experiment", "run_experiment")
    for mod in (rdr.problems, rdr.theory):
        rec.wrap(mod, "projected_solution", "projected_solution")
    rec.wrap(rdr.harness, "rate_report", "rate_report")
    for attr in ("_write_trace", "_write_summary", "_write_meta"):
        rec.wrap(rdr.harness, attr, "write")
