"""Command-line front end.

Each subcommand accepts exactly the options it reads; [..] marks an
optional one, and every subcommand also requires --out DIR:

  project             --input --spec1 --spec2 [--mode] [--image-dims]
                      [--format] [--check-transversal] [--tol]
  reconstruct points  --image1 --image2 --spec1 --spec2 [--tol]
  reconstruct voxels  --sino1 --sino2 --spec1 --spec2 --grid-dims
                      [--spacing] [--matrix-market] [--tol]
  certify             --input --spec1 --spec2 --field-x --field-y
                      --connection [--tol] [--tol-int]
  diagnose algebra    --table [--strict]
  diagnose frobenius  --field-x --field-y [--profile]
  diagnose hantjies   --field-x --field-y --connection [--tol-int]
  diagnose curvature  --field-x --field-y --field-z --connection
  diagnose jacobiator --field-x --field-y --field-z [--twist]
  toric detect        --input [--orders] [--tol]
  toric solve         --constraints --axis --order
  noise-study         --input --spec1 --spec2 --sigmas [--trials] [--seed]
                      [--tol]

Diagnostic maxima are taken over interior nodes, those at least one node
from every face.

Exit codes: 0 success, 2 input error (an argparse error, an empty --out,
an --out that cannot be made a directory, and a grid, image or trial
count whose run would need more than 256 MiB by the size model in rows,
voxels, stored entries, march samples and dense values, included), 3
geometric precondition failure, 4 a numerical failure: a floating-point
overflow or invalid operation, or a NaN or infinity in an output JSON
file.  Every failure writes one JSON object on stderr and no
run.json.  Every option value, and then every input file, is read
before --out is made: a value its validator refuses, a comma list's
included, is an input error naming the option, and a file its loader
cannot read or its record refuses is one naming the file.  A run makes
--out only once all of them are accepted, so a refused one leaves no
directory behind.  A failure after that comes from the inputs taken
together, such as a geometric or numerical failure, two lattices that
differ or a run over the memory limit.  Every command
is deterministic given its inputs, and each successful run writes a
`run.json` with the tool version and the value of every option the
subcommand accepts.  A run that only parses its arguments (--version,
--help, a usage error) imports no numpy.  A run builds the parser of the
command its arguments name and no other: all of them only when they name
none (or ask for the top-level help), none for --version.

`run` is the process entry, of `python -m twoview.cli` and the
`twoview` script: it exits with `main`'s code after freezing the garbage
collector, so the interpreter's exit does not walk the run's objects.
`main(argv)` is the in-process API and never freezes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from . import algebra, certify, diffgeo, geometry, recon, toric
from . import serialization as ser
from .errors import (
    GeometricError,
    InputError,
    NumericalError,
    TwoViewError,
)

TOOL = f"twoview {__version__}"


def _setup_logging():
    """Set the root logger's level from RECON_LOG, when it is set."""
    level = os.environ.get("RECON_LOG")
    if level is None:
        return
    import logging
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level.lower(), logging.ERROR))


# -- commands ---------------------------------------------------------------


def cmd_project(args, out: Path) -> None:
    specs = (args.spec1, args.spec2)
    if args.check_transversal:
        geometry._cross_norm(*specs, args.tol)
    if args.mode == "points":
        for i, spec in enumerate(specs, start=1):
            ser.save_image(geometry.project_points(args.input, spec),
                           out / f"image{i}.json")
    else:
        grid = args.input
        dims = max(grid.dims) if args.image_dims is None else args.image_dims
        # both views pass every guard before either is written
        sinos = [geometry.project_voxels(grid, spec, (dims, dims))
                 for spec in specs]
        for i, sino in enumerate(sinos, start=1):
            ser.save_sinogram_csv(sino, out / f"sino{i}.csv")
            if args.format == "pgm":
                ser.save_sinogram_pgm(sino, out / f"sino{i}.pgm")


def cmd_reconstruct_points(args, out: Path) -> None:
    import numpy as np
    spec1, spec2, img1, img2 = args.spec1, args.spec2, args.image1, args.image2
    cloud = recon.reconstruct_cloud(img1, img2, spec1, spec2, args.tol)
    ser.save_cloud(cloud, out / "reconstructed.json")
    reproj = 0.0
    if len(cloud):
        r1 = geometry.project_points(cloud, spec1).positions - img1.positions
        r2 = geometry.project_points(cloud, spec2).positions - img2.positions
        reproj = float(max(np.abs(r1).max(), np.abs(r2).max()))
        trans = geometry.check_transversality(spec1, spec2, args.tol)
        cert = {"transversality": trans.to_dict(),
                "unique": bool(trans.transversal)}
    else:
        cert = {"transversality": None, "unique": False}
    ser.dump_json({"tool": TOOL, **cert}, out / "certificate.json")
    ser.dump_json({"tool": TOOL, "points": len(cloud),
                   "max_reprojection_error": reproj}, out / "summary.json")


def cmd_reconstruct_voxels(args, out: Path) -> None:
    import numpy as np
    geometry._cross_norm(args.spec1, args.spec2, args.tol)
    lattice = geometry.GridHeader(args.grid_dims, args.spacing, np.zeros(3))
    system = recon.build_radon_system([args.spec1, args.spec2], lattice,
                                      [args.sino1, args.sino2])
    values = recon.solve_radon(system)
    recovered = geometry.VoxelGrid(lattice.dims, lattice.spacing,
                                   -lattice.center, np.maximum(values, 0.0))
    ser.save_voxels(recovered, out / "recovered.json")
    ser.dump_json({"tool": TOOL, "rank": system.rank,
                   "rank_method": system.rank_method,
                   "voxels": int(np.prod(lattice.dims)),
                   "determined": system.determined}, out / "system.json")
    if args.matrix_market:
        ser.save_matrix_market(system.rows, out / "system.mtx")


def cmd_certify(args, out: Path) -> None:
    cert = certify.certificate(args.spec1, args.spec2, args.input,
                               args.field_x, args.field_y, args.connection,
                               tol_transversal=args.tol,
                               tol_integrability=args.tol_int)
    ser.dump_json({"tool": TOOL, **cert.to_dict()}, out / "certificate.json")


def _report(args, out: Path, **fields) -> None:
    ser.dump_json({"tool": TOOL, "check": args.check, **fields},
                  out / "report.json")


def cmd_diagnose_algebra(args, out: Path) -> None:
    assoc = algebra.check_associative(args.table)
    mouf = algebra.check_moufang(args.table, strict=args.strict)
    _report(args, out, order=args.table.order, total=args.table.is_total,
            associative=assoc.holds, associative_witness=assoc.witness,
            moufang=mouf.holds, moufang_witness=mouf.witness)


def cmd_diagnose_frobenius(args, out: Path) -> None:
    residual, rmax = diffgeo.frobenius_residual(args.field_x, args.field_y)
    if args.profile:
        ser._write_rows(out / "profile.csv",
                        residual.reshape(residual.shape[0], -1))
    _report(args, out, max_frobenius_residual=rmax)


def cmd_diagnose_hantjies(args, out: Path) -> None:
    rep = diffgeo.integrability_report(args.field_x, args.field_y,
                                       args.connection, args.tol_int)
    _report(args, out, max_hantjies_norm=rep.max_hantjies_norm,
            max_frobenius_residual=rep.max_frobenius_residual,
            integrable=rep.integrable, tolerance=rep.tolerance,
            interior_nodes=rep.interior_node_count)


def cmd_diagnose_curvature(args, out: Path) -> None:
    F = diffgeo.curvature(args.connection, args.field_x, args.field_y,
                          args.field_z)
    _report(args, out, max_curvature_norm=F.max_interior_norm())


def cmd_diagnose_jacobiator(args, out: Path) -> None:
    H = algebra.TwistMap.zero() if args.twist is None else args.twist
    _, jmax = algebra.jacobiator(args.field_x, args.field_y, args.field_z, H)
    _report(args, out, max_jacobiator_norm=jmax)


def cmd_toric_detect(args, out: Path) -> None:
    rep = toric.detect_axis(args.input, args.orders, tol=args.tol)
    ser.dump_json({"tool": TOOL, "axis": rep.axis.tolist(),
                   "order": rep.order,
                   "invariance_residual": rep.invariance_residual,
                   "fixed_subspace_dim": rep.fixed_subspace_dim,
                   "continuous": rep.continuous}, out / "toric.json")


def cmd_toric_solve(args, out: Path) -> None:
    rows, dim = args.constraints
    sol = toric.solve_direction_equivariant(rows, args.axis, args.order, dim)
    ser.dump_json({"tool": TOOL, "v": sol.v.tolist(), "nullity": sol.nullity,
                   "residual": sol.residual}, out / "direction.json")


def cmd_noise_study(args, out: Path) -> None:
    lines = [f"# {TOOL} seed={args.seed} trials={args.trials}",
             "sigma,rmse_mean,rmse_std,predicted_bound,slope"]
    for sigma in args.sigmas:
        rep = recon.noise_study(args.input, args.spec1, args.spec2, sigma,
                                args.trials, seed=args.seed, tol=args.tol)
        lines.append(",".join(repr(float(x)) for x in
                              (rep.sigma, rep.rmse_mean, rep.rmse_std,
                               rep.predicted_bound, rep.slope)))
    (out / "noise.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- argument parsing -------------------------------------------------------


# the check that owns each option, run on its value when its subcommand
# takes it and it is given, before --out is made, in this order: a single
# value's validator; for a comma list, its element type and the validator
# of the parsed list, which the command then receives; for an input file,
# the name of its `serialization` loader, whose record the command then
# receives and whose errors name the file.  The lambdas and the names read
# each layer only when they run
_OPTION_CHECKS = {
    "--tol": lambda tol: geometry._require_tol(tol),
    "--tol-int": lambda tol: geometry._require_tol(tol),
    "--spacing": lambda h: geometry.GridHeader((1, 1, 1), h, (0, 0, 0)),
    "--image-dims": lambda n: geometry._image_dims((n, n)),
    "--order": lambda k: toric._require_order(k),
    "--trials": lambda n: recon._require_trials(n),
    "--seed": lambda s: geometry._require_int(s, "seed", 0),
    # a unit-spacing header checks the dims, so that only their refusal
    # names --grid-dims; the system does not depend on the origin
    "--grid-dims": (int, lambda d: geometry.GridHeader(d, 1.0, (0, 0, 0))),
    "--orders": (int, lambda k: toric._require_orders(k)),
    # the raw values go on: normalizing twice can move an axis's last bit
    "--axis": (float, lambda v: toric._unit_axis(v)),
    "--sigmas": (float, lambda s: geometry._as_array(s, -1, "sigma", lo=0)),
    # the input files, read once every value above has passed
    "--input": "load_cloud", "--spec1": "load_spec", "--spec2": "load_spec",
    "--image1": "load_image", "--image2": "load_image",
    "--sino1": "load_sinogram_csv", "--sino2": "load_sinogram_csv",
    "--field-x": "load_vector_field", "--field-y": "load_vector_field",
    "--field-z": "load_vector_field", "--connection": "load_connection",
    "--table": "load_magma", "--twist": "load_twist",
    "--constraints": "load_constraints",
}


def _check_options(args) -> None:
    for option, check in _OPTION_CHECKS.items():
        dest = option[2:].replace("-", "_")
        value = getattr(args, dest, None)
        if value is None:
            continue
        if isinstance(check, str):
            # project reads its --input as a voxel grid under --mode voxels
            if (option, getattr(args, "mode", None)) == ("--input", "voxels"):
                check = "load_voxels"
            setattr(args, dest, getattr(ser, check)(value))
        elif isinstance(check, tuple):
            setattr(args, dest, ser.read_list(value, option, *check))
        else:
            ser.check_option(value, option, check)


class _Parser(argparse.ArgumentParser):
    """Raises a parse error as an InputError, so that it leaves `main` as
    one JSON line and exit 2 like every other input error.  Subparsers are
    built from the same class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


_SPECS = ("--spec1", "--spec2")
_FIELDS = ("--field-x", "--field-y")
_TOL = {"--tol": {"type": float, "default": 1e-9}}
_TOL_INT = {"--tol-int": {"type": float, "default": None}}
_FLAG = {"action": "store_true"}
# each leaf command by its words, in help order: its function, the options
# it requires beside --out, and its other options with their keywords; a
# group's first leaf adds the group, whose subcommand is `_GROUPS`' dest
_GROUPS = {"reconstruct": "mode", "diagnose": "check", "toric": "mode"}
_LEAVES = {
    ("project",): (cmd_project, ("--input", *_SPECS), {
        **_TOL,
        "--mode": {"choices": ["points", "voxels"], "default": "points"},
        "--image-dims": {"type": int, "default": None},
        "--format": {"choices": ["csv", "pgm"], "default": "csv"},
        "--check-transversal": _FLAG}),
    ("reconstruct", "points"): (cmd_reconstruct_points,
                                ("--image1", "--image2", *_SPECS), _TOL),
    ("reconstruct", "voxels"): (cmd_reconstruct_voxels,
                                ("--sino1", "--sino2", *_SPECS), {
        **_TOL, "--grid-dims": {"required": True,
                                "help": "comma-separated nx,ny,nz"},
        "--spacing": {"type": float, "default": 1.0},
        "--matrix-market": _FLAG}),
    ("certify",): (cmd_certify, ("--input", *_SPECS, *_FIELDS,
                                 "--connection"), {**_TOL, **_TOL_INT}),
    ("diagnose", "algebra"): (cmd_diagnose_algebra, ("--table",),
                              {"--strict": _FLAG}),
    ("diagnose", "frobenius"): (cmd_diagnose_frobenius, _FIELDS,
                                {"--profile": _FLAG}),
    ("diagnose", "hantjies"): (cmd_diagnose_hantjies,
                               (*_FIELDS, "--connection"), _TOL_INT),
    ("diagnose", "curvature"): (cmd_diagnose_curvature,
                                (*_FIELDS, "--field-z", "--connection"), {}),
    ("diagnose", "jacobiator"): (cmd_diagnose_jacobiator,
                                 (*_FIELDS, "--field-z"), {"--twist": {}}),
    ("toric", "detect"): (cmd_toric_detect, ("--input",), {
        **_TOL, "--orders": {"default": "2,3,4,5,6"}}),
    ("toric", "solve"): (cmd_toric_solve, ("--constraints",), {
        "--axis": {"required": True, "help": "comma-separated 3-vector"},
        "--order": {"type": int, "required": True}}),
    ("noise-study",): (cmd_noise_study, ("--input", *_SPECS), {
        **_TOL, "--sigmas": {"required": True, "help": "comma-separated stds"},
        "--trials": {"type": int, "default": 100},
        "--seed": {"type": int, "default": 0}}),
}


def _named_leaves(argv) -> list:
    """The leaves a parse of `argv` needs: none when it starts with
    --version, where argparse exits; else every leaf under the command, and
    then the group's subcommand, that its first words name, and all of them
    when its first word names none, so that help and invalid-choice errors
    list every choice."""
    if argv[:1] == ["--version"]:
        return []
    leaves = list(_LEAVES)
    for depth, word in enumerate(argv[:2]):
        named = [leaf for leaf in leaves if leaf[depth:depth + 1] == (word,)]
        if not named:
            break
        leaves = named
    return leaves


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of `argv`: the top level and only the command branch argv
    names, or every branch when it names none (the default)."""
    p = _Parser(prog="twoview", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=TOOL)
    subs = {(): p.add_subparsers(dest="command", required=True)}
    for words in _named_leaves(list(argv)):
        group = words[:-1]
        if group not in subs:
            subs[group] = subs[()].add_parser(group[0]).add_subparsers(
                dest=_GROUPS[group[0]], required=True)
        func, required, options = _LEAVES[words]
        sp = subs[group].add_parser(words[-1])
        for opt in ("--out", *required):
            sp.add_argument(opt, required=True)
        for opt, kwargs in options.items():
            sp.add_argument(opt, **kwargs)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        if not args.out:
            raise InputError("--out must name a directory, got ''")
        # run.json echoes the options as given, before the lists are parsed
        # and the files read
        config = {k: str(v) for k, v in vars(args).items() if not callable(v)}
        _check_options(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings():
            # numpy reports an overflow or an invalid operation outside an
            # np.errstate block as a RuntimeWarning on stderr; it ends the
            # run as a NumericalError instead, so stderr holds one JSON line
            warnings.simplefilter("error", RuntimeWarning)
            try:
                args.func(args, out)
            except RuntimeWarning as exc:
                raise NumericalError(f"floating-point {exc}") from exc
        ser.dump_json({"tool": TOOL, "config": config}, out / "run.json")
    except (TwoViewError, OSError) as exc:
        import json
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return (3 if isinstance(exc, GeometricError) else
                4 if isinstance(exc, NumericalError) else 2)
    return 0


def run() -> None:
    """The process entry, `python -m twoview.cli` and the `twoview` script:
    exit with `main`'s code, after moving every object the run made into
    the collector's permanent generation (`gc.freeze`).  Every output is
    closed by then, so the full collections of the interpreter's exit need
    not walk them; its atexit handlers, stream flushes and module teardown
    still run.  `main` never freezes: a process that calls it many times,
    a test session say, would keep all of its cyclic garbage."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
