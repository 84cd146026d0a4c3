"""Command-line front end.

Subcommands: project, reconstruct {points|voxels}, certify,
diagnose {frobenius|hantjies|curvature|jacobiator|algebra},
toric {detect|solve}, noise-study.

Exit codes: 0 success, 2 input/parse error, 3 geometric precondition
failure, 4 numerical non-convergence.  Errors are emitted as one JSON
object on stderr.  Every command is deterministic given (inputs, seed)
and each successful run writes a `run.json` echoing the tool version and
config.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np
import scipy.io

from . import __version__
from . import serialization as ser
from .algebra import TwistMap, check_associative, check_moufang, jacobiator
from .certify import certificate, check_transversality
from .diffgeo import (
    curvature,
    frobenius_residual,
    hantjies_tensor,
    integrability_report,
)
from .errors import GeometricError, InputError, NumericalError, TwoViewError
from .geometry import (
    Sinogram,
    VoxelGrid,
    pixel_center_coords,
    project_points,
    project_voxels,
    _cross_norm,
)
from .recon import (
    ConstraintRow,
    build_radon_system,
    noise_study,
    reconstruct_cloud,
    solve_radon,
)
from .toric import detect_axis, solve_direction_equivariant

TOOL = f"twoview {__version__}"

log = logging.getLogger("twoview")


def _setup_logging():
    level = os.environ.get("RECON_LOG", "error").lower()
    logging.basicConfig(level={"error": logging.ERROR, "info": logging.INFO,
                               "debug": logging.DEBUG}.get(level, logging.ERROR))


def _echo_run(out: Path, args) -> None:
    cfg = {k: v for k, v in vars(args).items()
           if k != "func" and not callable(v)}
    ser.dump_json({"tool": TOOL, "config": {k: str(v) for k, v in cfg.items()}},
                  out / "run.json")


# -- commands ---------------------------------------------------------------


def cmd_project(args, out: Path) -> None:
    spec1 = ser.load_spec(args.spec1)
    spec2 = ser.load_spec(args.spec2)
    if args.check_transversal:
        _cross_norm(spec1, spec2, args.tol)
    if args.mode == "points":
        cloud = ser.load_cloud(args.input)
        ser.save_image(project_points(cloud, spec1), out / "image1.json")
        ser.save_image(project_points(cloud, spec2), out / "image2.json")
    else:
        grid = ser.load_voxels(args.input)
        dims = args.image_dims or max(grid.dims)
        for i, spec in enumerate((spec1, spec2), start=1):
            sino = project_voxels(grid, spec, (dims, dims))
            ser.save_sinogram_csv(sino, out / f"sino{i}.csv")
            if args.format == "pgm":
                ser.save_sinogram_pgm(sino, out / f"sino{i}.pgm")


def cmd_reconstruct_points(args, out: Path) -> None:
    spec1 = ser.load_spec(args.spec1)
    spec2 = ser.load_spec(args.spec2)
    img1 = ser.load_image(args.image1)
    img2 = ser.load_image(args.image2)
    cloud = reconstruct_cloud(img1, img2, spec1, spec2, args.tol)
    ser.save_cloud(cloud, out / "reconstructed.json")
    reproj = 0.0
    if len(cloud):
        r1 = project_points(cloud, spec1).positions - img1.positions
        r2 = project_points(cloud, spec2).positions - img2.positions
        reproj = float(max(np.abs(r1).max(), np.abs(r2).max()))
        trans = check_transversality(spec1, spec2, args.tol)
        cert = {"transversality": trans.to_dict(),
                "unique": bool(trans.transversal)}
    else:
        cert = {"transversality": None, "unique": False}
    ser.dump_json({"tool": TOOL, **cert}, out / "certificate.json")
    ser.dump_json({"tool": TOOL, "points": len(cloud),
                   "max_reprojection_error": reproj}, out / "summary.json")


def cmd_reconstruct_voxels(args, out: Path) -> None:
    spec1 = ser.load_spec(args.spec1)
    spec2 = ser.load_spec(args.spec2)
    _cross_norm(spec1, spec2, args.tol)
    try:
        dims = tuple(int(d) for d in args.grid_dims.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 3 or min(dims) < 1:
        raise InputError(
            f"--grid-dims must be three positive ints, got {args.grid_dims!r}")
    origin = -args.spacing * (np.asarray(dims) - 1) / 2.0
    sinos = []
    for path, spec in ((args.sino1, spec1), (args.sino2, spec2)):
        vals = ser._read_rows(path)
        ref = VoxelGrid(dims, args.spacing, origin, np.zeros(dims))
        origin2d = pixel_center_coords(ref, spec, vals.shape)[0, 0]
        sinos.append(Sinogram(vals, args.spacing, origin2d))
    system = build_radon_system([spec1, spec2], dims, args.spacing, sinos,
                                origin=origin)
    values = solve_radon(system, tol=args.solver_tol)
    ser.save_voxels(VoxelGrid(dims, args.spacing, origin,
                              np.maximum(values, 0.0)), out / "recovered.json")
    ser.dump_json({"tool": TOOL, "rank": system.rank,
                   "voxels": int(np.prod(dims)),
                   "determined": system.determined}, out / "system.json")
    if args.matrix_market:
        scipy.io.mmwrite(str(out / "system.mtx"), system.rows)


def cmd_certify(args, out: Path) -> None:
    spec1 = ser.load_spec(args.spec1)
    spec2 = ser.load_spec(args.spec2)
    cloud = ser.load_cloud(args.input)
    X = ser.load_vector_field(args.field_x)
    Y = ser.load_vector_field(args.field_y)
    conn = ser.load_connection(args.connection)
    cert = certificate(spec1, spec2, cloud, X, Y, conn,
                       tol_transversal=args.tol,
                       tol_integrability=args.tol_int)
    ser.dump_json({"tool": TOOL, **cert.to_dict()}, out / "certificate.json")


def cmd_diagnose(args, out: Path) -> None:
    report: dict = {"tool": TOOL, "check": args.check}
    if args.check == "algebra":
        magma = ser.load_magma(args.table)
        assoc = check_associative(magma)
        mouf = check_moufang(magma, strict=args.strict)
        report.update({
            "order": magma.order,
            "total": magma.is_total,
            "associative": assoc.holds,
            "associative_witness": assoc.witness,
            "moufang": mouf.holds,
            "moufang_witness": mouf.witness,
        })
    else:
        X = ser.load_vector_field(args.field_x)
        Y = ser.load_vector_field(args.field_y)
        if args.check == "frobenius":
            residual, rmax = frobenius_residual(X, Y)
            report.update({"max_frobenius_residual": rmax})
            if args.profile:
                ser._write_rows(out / "profile.csv",
                                residual.reshape(residual.shape[0], -1))
        elif args.check == "hantjies":
            conn = ser.load_connection(args.connection)
            rep = integrability_report(X, Y, conn, args.tol_int)
            report.update({
                "max_hantjies_norm": rep.max_hantjies_norm,
                "max_frobenius_residual": rep.max_frobenius_residual,
                "integrable": rep.integrable,
                "tolerance": rep.tolerance,
                "interior_nodes": rep.interior_node_count,
            })
        elif args.check == "curvature":
            conn = ser.load_connection(args.connection)
            Z = ser.load_vector_field(args.field_z)
            F = curvature(conn, X, Y, Z)
            report.update({"max_curvature_norm": float(
                np.linalg.norm(F.samples, axis=-1).max())})
        elif args.check == "jacobiator":
            Z = ser.load_vector_field(args.field_z)
            twist = TwistMap(np.asarray(
                json.loads(Path(args.twist).read_text())
                if args.twist else np.zeros((3, 3, 3))))
            _, jmax = jacobiator(X, Y, Z, twist)
            report.update({"max_jacobiator_norm": jmax})
    ser.dump_json(report, out / "report.json")


def cmd_toric_detect(args, out: Path) -> None:
    cloud = ser.load_cloud(args.input)
    orders = [int(k) for k in args.orders.split(",")]
    rep = detect_axis(cloud, orders, tol=args.tol)
    ser.dump_json({"tool": TOOL, "axis": rep.axis.tolist(),
                   "order": rep.order,
                   "invariance_residual": rep.invariance_residual,
                   "fixed_subspace_dim": rep.fixed_subspace_dim,
                   "continuous": rep.continuous}, out / "toric.json")


def cmd_toric_solve(args, out: Path) -> None:
    data = ser._load_json(args.constraints)
    try:
        rows = [ConstraintRow(r["omega"], r.get("rhs", 0.0))
                for r in data["rows"]]
        dim = int(data.get("dim", 3))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed constraints: {exc}") from exc
    axis = [float(x) for x in args.axis.split(",")]
    sol = solve_direction_equivariant(rows, axis, args.order, dim)
    ser.dump_json({"tool": TOOL, "v": sol.v.tolist(), "nullity": sol.nullity,
                   "residual": sol.residual}, out / "direction.json")


def cmd_noise_study(args, out: Path) -> None:
    cloud = ser.load_cloud(args.input)
    spec1 = ser.load_spec(args.spec1)
    spec2 = ser.load_spec(args.spec2)
    sigmas = [float(s) for s in args.sigmas.split(",")]
    lines = [f"# {TOOL} seed={args.seed} trials={args.trials}",
             "sigma,rmse_mean,rmse_std,predicted_bound,slope"]
    for sigma in sigmas:
        rep = noise_study(cloud, spec1, spec2, sigma, args.trials,
                          seed=args.seed)
        lines.append(",".join(repr(float(x)) for x in
                              (rep.sigma, rep.rmse_mean, rep.rmse_std,
                               rep.predicted_bound, rep.slope)))
    (out / "noise.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twoview", description=__doc__)
    p.add_argument("--version", action="version", version=TOOL)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, specs=True):
        sp.add_argument("--out", required=True)
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--seed", type=int, default=0)
        if specs:
            sp.add_argument("--spec1", required=True)
            sp.add_argument("--spec2", required=True)

    sp = sub.add_parser("project", help="project a cloud or voxel grid")
    sp.add_argument("--input", required=True)
    sp.add_argument("--mode", choices=["points", "voxels"], default="points")
    sp.add_argument("--image-dims", type=int, default=None)
    sp.add_argument("--format", choices=["csv", "pgm"], default="csv")
    sp.add_argument("--check-transversal", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_project)

    rec = sub.add_parser("reconstruct").add_subparsers(dest="mode",
                                                       required=True)
    sp = rec.add_parser("points")
    sp.add_argument("--image1", required=True)
    sp.add_argument("--image2", required=True)
    common(sp)
    sp.set_defaults(func=cmd_reconstruct_points)
    sp = rec.add_parser("voxels")
    sp.add_argument("--sino1", required=True)
    sp.add_argument("--sino2", required=True)
    sp.add_argument("--grid-dims", required=True,
                    help="comma-separated nx,ny,nz")
    sp.add_argument("--spacing", type=float, default=1.0)
    sp.add_argument("--solver-tol", type=float, default=1e-10)
    sp.add_argument("--matrix-market", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_reconstruct_voxels)

    sp = sub.add_parser("certify")
    sp.add_argument("--input", required=True)
    sp.add_argument("--field-x", required=True)
    sp.add_argument("--field-y", required=True)
    sp.add_argument("--connection", required=True)
    sp.add_argument("--tol-int", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("diagnose")
    sp.add_argument("check", choices=["frobenius", "hantjies", "curvature",
                                      "jacobiator", "algebra"])
    sp.add_argument("--field-x")
    sp.add_argument("--field-y")
    sp.add_argument("--field-z")
    sp.add_argument("--connection")
    sp.add_argument("--table")
    sp.add_argument("--twist")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--profile", action="store_true")
    sp.add_argument("--tol-int", type=float, default=None)
    common(sp, specs=False)
    sp.set_defaults(func=cmd_diagnose)

    tor = sub.add_parser("toric").add_subparsers(dest="mode", required=True)
    sp = tor.add_parser("detect")
    sp.add_argument("--input", required=True)
    sp.add_argument("--orders", default="2,3,4,5,6")
    common(sp, specs=False)
    sp.set_defaults(func=cmd_toric_detect)
    sp = tor.add_parser("solve")
    sp.add_argument("--constraints", required=True)
    sp.add_argument("--axis", required=True, help="comma-separated 3-vector")
    sp.add_argument("--order", type=int, required=True)
    common(sp, specs=False)
    sp.set_defaults(func=cmd_toric_solve)

    sp = sub.add_parser("noise-study")
    sp.add_argument("--input", required=True)
    sp.add_argument("--sigmas", required=True, help="comma-separated stds")
    sp.add_argument("--trials", type=int, default=100)
    common(sp)
    sp.set_defaults(func=cmd_noise_study)
    return p


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        args.func(args, out)
    except InputError as exc:
        return _fail(exc, 2)
    except GeometricError as exc:
        return _fail(exc, 3)
    except NumericalError as exc:
        return _fail(exc, 4)
    except TwoViewError as exc:  # anything uncategorized
        return _fail(exc, 2)
    _echo_run(out, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
