"""The measured pipeline, its traced form and the tracemalloc pass.

The pipeline is ``PointCloudPair(check=False)`` -> ``coupled_alpha_infty``
-> ``coupled_filtration`` -> ``persistence_diagram``, called through the
package's public API only. The traced form wraps each call into a layer in
a span; calls that the pipeline does not make itself, but that time one
layer alone (the triangulation inside ``coupled_alpha_infty``, the boundary
matrix and reduction inside ``persistence_diagram``), are re-executed as
probe spans so they can be left out when comparing against untraced runs.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass(eq=False)
class Result:
    """Plain-data output of one pipeline call, as the gate consumes it."""

    simplices: tuple
    values: dict
    intervals: list  # (dim, birth, death)
    cells: int = 0  # lifted Delaunay cells, known only from a traced call

    @classmethod
    def of(cls, cplx, fc, diagram, cells: int = 0) -> "Result":
        intervals = [(iv.dim, iv.birth, iv.death) for iv in diagram.all_intervals]
        return cls(cplx.simplices, fc.values, intervals, cells)


def run(ca, x, y) -> Result:
    pair = ca.PointCloudPair(x, y, check=False)
    cplx = ca.coupled_alpha_infty(pair)
    fc = ca.coupled_filtration(cplx)
    return Result.of(cplx, fc, ca.persistence_diagram(fc))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    probe: bool
    error: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory; ``spans[i].parent`` indexes this list."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def call(self, name: str, op: int, fn, *args, probe: bool = False):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, op, probe, None)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def as_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def run_traced(ca, x, y, op: int, tracer: Tracer) -> Result:
    def body():
        pair = tracer.call("complexes.pair", op, lambda: ca.PointCloudPair(x, y, check=False))
        tri = tracer.call(
            "delaunay.triangulate", op,
            lambda: ca.delaunay_incremental(ca.lift_clouds(pair.x, pair.y)), probe=True,
        )
        cells = len(tri.cells)
        del tri
        cplx = tracer.call("complexes.build", op, ca.coupled_alpha_infty, pair)
        fc = tracer.call("filtration.filtrate", op, ca.coupled_filtration, cplx)
        _, columns = tracer.call("homology.boundary", op, ca.boundary_matrix, fc, probe=True)
        tracer.call("homology.reduce", op, ca.reduce_and_pair, columns, probe=True)
        del columns
        diagram = tracer.call("homology.diagram", op, ca.persistence_diagram, fc)
        return Result.of(cplx, fc, diagram, cells)

    return tracer.call("pipeline", op, body)


def peak_alloc(ca, x, y) -> dict[str, float]:
    """Peak MiB allocated above the starting level, per layer call.

    Runs under tracemalloc, which slows pure-Python code several times, so
    it is its own pass and none of its times are reported.
    """
    peaks: dict[str, float] = {}

    def measure(layer, fn, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peaks[layer] = (tracemalloc.get_traced_memory()[1] - before) / 2**20
        return out

    tracemalloc.start()
    try:
        pair = ca.PointCloudPair(x, y, check=False)
        measure("delaunay", lambda: ca.delaunay_incremental(ca.lift_clouds(pair.x, pair.y)))
        cplx = measure("complexes", ca.coupled_alpha_infty, pair)
        fc = measure("filtration", ca.coupled_filtration, cplx)
        measure("homology", ca.persistence_diagram, fc)
    finally:
        tracemalloc.stop()
    return peaks
