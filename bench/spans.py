"""Outside-in tracing of the `twoview` layers.

`Tracer.install` replaces every module-level binding of each layer's
public functions, in every loaded `twoview.*` module, with a wrapper that
records a span (name, start, end, parent span, op id).  Cross-module calls
therefore nest: `noise_study -> reconstruct_cloud`,
`build_radon_system -> elimination_rank`.  Spans stay in memory until
`layer_metrics` turns them into per-layer numbers.  Nothing in the
program is edited; `uninstall` puts the original bindings back.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "serialization", "geometry", "moments", "recon", "diffgeo",
          "certify", "algebra", "toric")

# private serialization helpers that cli.py calls directly
PRIVATE_WRAPPED = {"serialization": ("_load_json", "_read_rows", "_write_rows")}

# functions that run once per item would swamp the trace (triangulate runs
# once per point) and are left unwrapped
UNWRAPPED = {"recon": ("triangulate",)}

# functions that read or write one file themselves; their path argument is
# what the serialization byte counters measure
IO_READ = {"_load_json", "_read_rows", "load_magma"}
IO_WRITE = {"dump_json", "_write_rows", "save_sinogram_pgm", "save_magma"}


@dataclass
class Span:
    sid: int
    name: str           # "<layer>.<function>"
    layer: str
    start: float
    end: float
    parent: int | None
    op: int
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_arg(args):
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return a
    return None


def _transport_steps(args, kwargs) -> int:
    """Step count of `parallel_transport` from its step rule."""
    import numpy as np
    conn, path = args[0], args[1]
    per = kwargs.get("steps_per_spacing", args[3] if len(args) > 3 else 4)
    hmax = conn.header.spacing / per
    pts = np.asarray(path, dtype=float).reshape(-1, 3)
    lens = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return int(sum(max(1, math.ceil(s / hmax)) for s in lens if s > 0))


def _count(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Work counters taken at the layer boundary."""
    c = tracer.counters
    if name == "geometry.project_points":
        c["geometry.points"] += len(args[0])
    elif name == "recon.reconstruct_cloud":
        c["recon.points"] += len(args[0])
    elif name == "recon.build_radon_system":
        A = result.rows
        c["recon.radon_rows"], c["recon.radon_cols"] = A.shape
        c["recon.radon_nnz"] = A.nnz
        c["recon.radon_rank"] = result.rank
    elif name == "recon.solve_radon":
        import numpy as np
        system = args[0]
        b = system.rhs
        r = system.rows @ np.asarray(result).ravel() - b
        c["recon.radon_residual_rel"] = float(
            np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))
    elif name == "diffgeo.parallel_transport":
        c["diffgeo.transport_steps"] += _transport_steps(args, kwargs)
    elif name in ("diffgeo.frobenius_residual", "diffgeo.curvature",
                  "diffgeo.integrability_report"):
        c["diffgeo.nodes"] = max(c["diffgeo.nodes"],
                                 math.prod(args[0].header.dims))
    elif name in ("algebra.check_associative", "algebra.check_moufang"):
        c["algebra.triples"] += args[0].order ** 3
    elif name == "toric.detect_axis":
        c["toric.points"] += len(args[0])
    fn = name.split(".", 1)[1]
    if fn in IO_READ or fn in IO_WRITE:
        path = _path_arg(args)
        if path is not None and os.path.exists(path):
            key = "bytes_in" if fn in IO_READ else "bytes_out"
            c["serialization." + key] += os.path.getsize(path)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(sid, name, layer, time.perf_counter(), 0.0, parent,
                        tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            _count(tracer, name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"twoview.{layer}"]
            skip = UNWRAPPED.get(layer, ())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and attr not in skip
                        and (not attr.startswith("_")
                             or attr in PRIVATE_WRAPPED.get(layer, ()))):
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "twoview" and not modname.startswith("twoview."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


LOADS = ("load", "_load", "_read")
SAVES = ("save", "dump", "_write")


def layer_metrics(spans, counters) -> dict:
    """Per-layer self time, calls and errors plus the stage metrics."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    m = {}
    for layer in LAYERS:
        own = [(s, t) for s, t in zip(spans, selfs) if s.layer == layer]
        m[f"{layer}.self_s"] = sum(t for _, t in own)
        m[f"{layer}.calls"] = len(own)
        m[f"{layer}.errors"] = sum(s.error for s, _ in own)

    def total(name, self_only=False):
        return sum(t if self_only else s.duration
                   for s, t in zip(spans, selfs) if s.name == name)

    def ser_top(prefixes):
        return sum(s.duration for s in spans
                   if s.layer == "serialization"
                   and s.name.split(".", 1)[1].startswith(prefixes)
                   and (s.parent is None
                        or by_id[s.parent].layer != "serialization"))

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    c = counters
    m["serialization.load_s"] = ser_top(LOADS)
    m["serialization.save_s"] = ser_top(SAVES)
    m["serialization.bytes_in"] = c["serialization.bytes_in"]
    m["serialization.bytes_out"] = c["serialization.bytes_out"]
    m["geometry.project_points_s"] = total("geometry.project_points")
    m["geometry.points_per_s"] = rate(c["geometry.points"],
                                      m["geometry.project_points_s"])
    m["geometry.project_voxels_s"] = total("geometry.project_voxels")
    m["recon.reconstruct_cloud_s"] = total("recon.reconstruct_cloud")
    m["recon.points_per_s"] = rate(c["recon.points"],
                                   m["recon.reconstruct_cloud_s"])
    m["recon.noise_study_s"] = total("recon.noise_study", self_only=True)
    m["recon.radon_rank_s"] = total("recon.elimination_rank")
    m["recon.radon_build_s"] = total("recon.build_radon_system") - sum(
        s.duration for s in spans if s.name == "recon.elimination_rank"
        and s.parent is not None
        and by_id[s.parent].name == "recon.build_radon_system")
    m["recon.radon_solve_s"] = total("recon.solve_radon")
    for k in ("rows", "cols", "nnz", "rank"):
        m[f"recon.radon_{k}"] = c[f"recon.radon_{k}"]
    m["recon.radon_dense_bytes"] = c["recon.radon_rows"] * c["recon.radon_cols"] * 8
    m["recon.radon_residual_rel"] = c["recon.radon_residual_rel"]
    m["diffgeo.nodes"] = c["diffgeo.nodes"]
    m["diffgeo.frobenius_s"] = total("diffgeo.frobenius_residual")
    m["diffgeo.integrability_s"] = total("diffgeo.integrability_report")
    m["diffgeo.curvature_s"] = total("diffgeo.curvature")
    m["diffgeo.transport_s"] = total("diffgeo.parallel_transport")
    m["diffgeo.transport_steps"] = c["diffgeo.transport_steps"]
    m["diffgeo.steps_per_s"] = rate(c["diffgeo.transport_steps"],
                                    m["diffgeo.transport_s"])
    m["algebra.associative_s"] = total("algebra.check_associative")
    m["algebra.moufang_s"] = total("algebra.check_moufang")
    m["algebra.jacobiator_s"] = total("algebra.jacobiator")
    m["algebra.triples"] = c["algebra.triples"]
    m["algebra.triples_per_s"] = rate(
        c["algebra.triples"], m["algebra.associative_s"] + m["algebra.moufang_s"])
    m["toric.detect_s"] = total("toric.detect_axis")
    m["toric.solve_s"] = total("toric.solve_direction_equivariant")
    m["toric.points"] = c["toric.points"]
    m["moments.second_moment_s"] = total("moments.second_moment")
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", "_rel")):
        return "1"
    return "count"
