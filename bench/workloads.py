"""The four workloads: seeded inputs, the ops of one pass, and their oracles.

Every op is one `twoview` CLI invocation (or the holonomy script) with
paths relative to the pass's working directory, so the files an op writes,
`run.json` included, are byte-identical from pass to pass.  Each op writes
under `out/<op name>` and names the oracle that checks those files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles


@dataclass(frozen=True)
class Op:
    name: str                 # also the output directory under out/
    metric: str               # end-to-end metric the wall time adds to
    argv: tuple
    check: Callable | None = None
    holonomy: bool = False    # run bench/holonomy.py instead of the CLI


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    make: Callable            # (root, rng, **sizes) -> truth dict
    ops: Callable             # (seed, **sizes) -> list[Op]
    tiny: dict = field(default_factory=dict)   # sizes for the self-tests


SPECS = ("--spec1", "in/spec1.json", "--spec2", "in/spec2.json")
SIGMAS = (0.01, 0.02, 0.05)


def _points_make(root, rng, n_points, n_noise, trials):
    truth = inputs.make_points(root, rng, n_points, n_noise)
    truth["sigmas"] = SIGMAS
    return truth


def _points_ops(seed, n_points, n_noise, trials):
    return [
        Op("project", "project_s",
           ("project", "--input", "in/cloud.json", *SPECS,
            "--check-transversal", "--out", "out/project"),
           oracles.check_images),
        Op("reconstruct", "reconstruct_s",
           ("reconstruct", "points", "--image1", "out/project/image1.json",
            "--image2", "out/project/image2.json", *SPECS,
            "--out", "out/reconstruct"),
           oracles.check_reconstruction),
        Op("noise_study", "noise_study_s",
           ("noise-study", "--input", "in/noise_cloud.json", *SPECS,
            "--sigmas", ",".join(map(str, SIGMAS)), "--trials", str(trials),
            "--seed", str(seed), "--out", "out/noise_study"),
           oracles.check_noise),
    ]


def _voxel_ops(d, extra_project, extra_reconstruct, check_project,
               check_reconstruct):
    return [
        Op("project", "project_s",
           ("project", "--mode", "voxels", "--input", "in/density.json",
            *SPECS, *extra_project, "--out", "out/project"), check_project),
        Op("reconstruct", "reconstruct_s",
           ("reconstruct", "voxels", "--sino1", "out/project/sino1.csv",
            "--sino2", "out/project/sino2.csv", "--grid-dims", f"{d},{d},{d}",
            *SPECS, *extra_reconstruct, "--out", "out/reconstruct"),
           check_reconstruct),
    ]


def _axis_ops(seed, d):
    return _voxel_ops(d, ("--format", "pgm"), (),
                      oracles.check_axis_sinograms, oracles.check_axis_recovery)


def _tilt_ops(seed, d, image_dims):
    # the tilt oracle reads both ops' files, so it runs once, after both
    return _voxel_ops(d, ("--image-dims", str(image_dims)),
                      ("--matrix-market",), None, oracles.check_tilt)


FIELDS = ("--field-x", "in/field_x.json", "--field-y", "in/field_y.json")
CONN = ("--connection", "in/sphere_conn.json")
FIELD_Z = ("--field-z", "in/field_z.json")


def _diag_ops(seed, n_grid, n_sym, order, n_loops):
    def diagnose(check, *extra, oracle):
        return Op(check, "diagnose_s",
                  ("diagnose", check, *FIELDS, *extra, "--out", f"out/{check}"),
                  oracle)

    return [
        Op("certify", "certify_s",
           ("certify", "--input", "in/sym_cloud.json", *SPECS, *FIELDS, *CONN,
            "--out", "out/certify"), oracles.check_certificate),
        diagnose("frobenius", oracle=oracles.check_frobenius),
        diagnose("hantjies", *CONN, oracle=oracles.check_hantjies),
        diagnose("curvature", *FIELD_Z, *CONN, oracle=oracles.check_curvature),
        diagnose("jacobiator", *FIELD_Z, oracle=oracles.check_jacobiator),
        Op("algebra", "algebra_s",
           ("diagnose", "algebra", "--table", "in/table.csv", "--strict",
            "--out", "out/algebra"), oracles.check_algebra),
        Op("toric_detect", "toric_s",
           ("toric", "detect", "--input", "in/sym_cloud.json",
            "--orders", "2,3,4,6", "--out", "out/toric_detect"),
           oracles.check_toric_detect),
        Op("toric_solve", "toric_s",
           ("toric", "solve", "--constraints", "in/constraints.json",
            "--axis", "0,0,1", "--order", "6", "--out", "out/toric_solve"),
           oracles.check_toric_solve),
        Op("transport", "transport_s",
           ("--connection", "in/holonomy_conn.json", "--loops", str(n_loops),
            "--out", "out/transport"), oracles.check_holonomy, holonomy=True),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        "points",
        "JSON I/O and per-point triangulation dominate project and "
        "reconstruct; noise-study triangulates with almost no I/O",
        {"n_points": 12000, "n_noise": 60, "trials": 80},
        _points_make, _points_ops,
        tiny={"n_points": 50, "n_noise": 60, "trials": 40}),
    Workload(
        "voxels-axis",
        "dense elimination rank of the two-view Radon system dominates "
        "reconstruct and sets peak RSS",
        {"d": 18},
        lambda root, rng, d: inputs.make_voxels(root, rng, d, tilt=False),
        _axis_ops, tiny={"d": 4}),
    Workload(
        "voxels-tilt",
        "the same Radon layer through ray-marched rows, where the two-view "
        "graph-rank identity does not hold",
        {"d": 14, "image_dims": 20},
        lambda root, rng, d, image_dims: inputs.make_voxels(root, rng, d,
                                                            tilt=True),
        _tilt_ops, tiny={"d": 4, "image_dims": 6}),
    Workload(
        "diagnostics",
        "the only workload where diffgeo, algebra, toric and certify work; "
        "CLI start-up is the largest share of most ops",
        {"n_grid": 20, "n_sym": 2400, "order": 36, "n_loops": 4},
        inputs.make_diagnostics, _diag_ops,
        tiny={"n_grid": 7, "n_sym": 60, "order": 6, "n_loops": 2}),
)}


def setup_inputs(wl: Workload, root: Path, seed: int, sizes=None) -> dict:
    """Write the workload's inputs under `root/in`; return the truth."""
    rng = np.random.default_rng(seed)
    return wl.make(root, rng, **(sizes or wl.sizes))
