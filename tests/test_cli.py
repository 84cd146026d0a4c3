import argparse
import contextlib
import gc
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st

import twoview
from twoview import cli, diffgeo, geometry, recon, toric
from twoview import serialization as ser
from twoview.cli import build_parser, main
from twoview.data import fixture_path
from twoview.errors import InputError
from twoview.diffgeo import (
    INTERIOR,
    ConnectionField,
    GridHeader,
    VectorFieldGrid,
    curvature,
)
from twoview.geometry import (
    PointCloud,
    ProjectionSpec,
    VoxelGrid,
    coordinate_spec,
    project_points,
    project_voxels,
    projection_operator,
)
from conftest import rotated_about_z, sphere_connection, tilted_spec

CLOUD = str(fixture_path("sample_cloud.json"))
TILT_30 = tilted_spec(np.pi / 6)
SPEC_XY = str(fixture_path("spec_xy.json"))
SPEC_YZ = str(fixture_path("spec_yz.json"))
_SPECS = ("--spec1", SPEC_XY, "--spec2", SPEC_YZ)
_FIELDS = ("--field-x", fixture_path("field_contact_x.json"),
           "--field-y", fixture_path("field_contact_y.json"))
_FIELD_Z = ("--field-z", fixture_path("field_coord_x.json"))


def run(*argv):
    return main([str(a) for a in argv])


class TestProject:
    def test_points(self, tmp_path):
        out = tmp_path / "out"
        assert run("project", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", SPEC_YZ, "--out", out) == 0
        img = ser.load_image(out / "image1.json")
        assert len(img) == 10
        run_cfg = json.loads((out / "run.json").read_text())
        assert run_cfg["tool"].startswith("twoview ")
        assert run_cfg["config"]["input"] == CLOUD

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("project", "--input", CLOUD, "--spec1", SPEC_XY,
                       "--spec2", SPEC_YZ, "--out", out) == 0
        assert (a / "image1.json").read_bytes() == \
            (b / "image1.json").read_bytes()
        assert (a / "image2.json").read_bytes() == \
            (b / "image2.json").read_bytes()

    def test_coaxial_rejected(self, tmp_path, capsys):
        code = run("project", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", SPEC_XY, "--check-transversal",
                   "--out", tmp_path / "out")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonTransverse"

    def test_missing_input(self, tmp_path, capsys):
        code = run("project", "--input", tmp_path / "nope.json",
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                   "--out", tmp_path / "out")
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_voxels_pgm(self, tmp_path, rng):
        grid = VoxelGrid((3, 3, 3), 1.0, (-1, -1, -1),
                         rng.uniform(0, 1, (3, 3, 3)))
        ser.save_voxels(grid, tmp_path / "grid.json")
        out = tmp_path / "out"
        assert run("project", "--input", tmp_path / "grid.json",
                   "--mode", "voxels", "--format", "pgm",
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ, "--out", out) == 0
        assert (out / "sino1.csv").exists()
        assert (out / "sino1.pgm").read_bytes().startswith(b"P5\n")


class TestReconstruct:
    def test_points_round_trip(self, tmp_path):
        proj = tmp_path / "proj"
        run("project", "--input", CLOUD, "--spec1", SPEC_XY,
            "--spec2", SPEC_YZ, "--out", proj)
        rec = tmp_path / "rec"
        assert run("reconstruct", "points", "--image1", proj / "image1.json",
                   "--image2", proj / "image2.json", "--spec1", SPEC_XY,
                   "--spec2", SPEC_YZ, "--out", rec) == 0
        original = ser.load_cloud(CLOUD)
        got = ser.load_cloud(rec / "reconstructed.json")
        np.testing.assert_allclose(got.positions, original.positions,
                                   atol=1e-9)
        summary = json.loads((rec / "summary.json").read_text())
        assert summary["max_reprojection_error"] <= 1e-9
        cert = json.loads((rec / "certificate.json").read_text())
        assert cert["unique"] is True
        assert cert["transversality"]["pass"] is True

    def test_points_of_empty_images(self, tmp_path):
        for name in ("image1.json", "image2.json"):
            (tmp_path / name).write_text('{"points": []}')
        rec = tmp_path / "rec"
        assert run("reconstruct", "points",
                   "--image1", tmp_path / "image1.json",
                   "--image2", tmp_path / "image2.json", *_SPECS,
                   "--out", rec) == 0
        assert len(ser.load_cloud(rec / "reconstructed.json")) == 0
        cert = json.loads((rec / "certificate.json").read_text())
        assert (cert["transversality"], cert["unique"]) == (None, False)
        summary = json.loads((rec / "summary.json").read_text())
        assert (summary["points"], summary["max_reprojection_error"]) == (0, 0)

    def test_voxels_determined_column(self, tmp_path, rng):
        vals = rng.uniform(0.1, 1.0, (1, 1, 4))
        grid = VoxelGrid((1, 1, 4), 0.5, (0.0, 0.0, -0.75), vals)
        ser.save_voxels(grid, tmp_path / "grid.json")
        ser.save_spec(coordinate_spec(1), tmp_path / "spec_zx.json")
        proj = tmp_path / "proj"
        run("project", "--input", tmp_path / "grid.json", "--mode", "voxels",
            "--spec1", SPEC_YZ, "--spec2", tmp_path / "spec_zx.json",
            "--out", proj)
        rec = tmp_path / "rec"
        assert run("reconstruct", "voxels", "--sino1", proj / "sino1.csv",
                   "--sino2", proj / "sino2.csv", "--grid-dims", "1,1,4",
                   "--spacing", "0.5", "--spec1", SPEC_YZ,
                   "--spec2", tmp_path / "spec_zx.json",
                   "--matrix-market", "--out", rec) == 0
        system = json.loads((rec / "system.json").read_text())
        assert system["determined"] is True
        assert system["rank"] == 4
        got = ser.load_voxels(rec / "recovered.json")
        np.testing.assert_allclose(got.values, vals, atol=1e-8)
        A = scipy.io.mmread(str(rec / "system.mtx")).toarray()
        np.testing.assert_allclose(A @ vals.ravel(), np.concatenate(
            [np.loadtxt(proj / f"sino{i}.csv", delimiter=",").ravel()
             for i in (1, 2)]), rtol=1e-12)

    @pytest.mark.parametrize("tilted, method", [(False, "graph"),
                                                (True, "svd")])
    def test_voxels_rank_method(self, tilted, method, tmp_path):
        ser.save_spec(TILT_30 if tilted else coordinate_spec(0),
                      tmp_path / "spec2.json")
        (tmp_path / "s.csv").write_text("1.0,0.5,0.0\n" * 3)
        outs = []
        for name in ("a", "b"):
            assert run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                       "--sino2", tmp_path / "s.csv", "--grid-dims", "3,3,3",
                       "--spec1", SPEC_XY, "--spec2", tmp_path / "spec2.json",
                       "--out", tmp_path / name) == 0
            outs.append((tmp_path / name / "system.json").read_bytes())
        assert outs[0] == outs[1]
        system = json.loads(outs[0])
        assert set(system) == {"tool", "rank", "rank_method", "voxels",
                               "determined"}
        assert system["rank_method"] == method

    def test_voxels_32_cube_tilt_ranks_each_x_slice(self, tmp_path):
        # the whole 3200 x 32768 matrix would need 839 MB dense, over the
        # limit; each x-slice is its own component
        n = 32
        dims = (n, n, n)
        origin = -(np.asarray(dims) - 1) / 2.0
        vals = np.random.default_rng(7).uniform(0.0, 1.0, dims)
        ser.save_voxels(VoxelGrid(dims, 1.0, origin, vals),
                        tmp_path / "grid.json")
        ser.save_spec(TILT_30, tmp_path / "tilt.json")
        specs = ("--spec1", SPEC_XY, "--spec2", tmp_path / "tilt.json")
        proj, rec = tmp_path / "proj", tmp_path / "rec"
        assert run("project", "--mode", "voxels", "--input",
                   tmp_path / "grid.json", *specs, "--image-dims", "40",
                   "--out", proj) == 0
        assert run("reconstruct", "voxels", "--sino1", proj / "sino1.csv",
                   "--sino2", proj / "sino2.csv", "--grid-dims", "32,32,32",
                   *specs, "--out", rec) == 0
        system = json.loads((rec / "system.json").read_text())
        slice_grid = VoxelGrid((1, n, n), 1.0, origin, np.zeros((1, n, n)))
        A = np.vstack([projection_operator(slice_grid, spec, (1, 40))
                       .toarray() for spec in (coordinate_spec(2), TILT_30)])
        assert system["rank_method"] == "svd"
        assert system["rank"] == n * np.linalg.matrix_rank(A)

    @pytest.mark.parametrize("spacing", ["1.0", "0.7", "0.3"])
    def test_voxels_tilt_rank_does_not_depend_on_the_spacing(
            self, spacing, tmp_path, monkeypatch):
        n, h = 24, float(spacing)
        vals = np.random.default_rng(3).uniform(0.0, 1.0, (n, n, n))
        ser.save_voxels(VoxelGrid((n, n, n), h, -h * (n - 1) / 2 * np.ones(3),
                                  vals), tmp_path / "grid.json")
        ser.save_spec(TILT_30, tmp_path / "tilt.json")
        specs = ("--spec1", SPEC_XY, "--spec2", tmp_path / "tilt.json")
        proj, rec = tmp_path / "proj", tmp_path / "rec"
        assert run("project", "--mode", "voxels", "--input",
                   tmp_path / "grid.json", *specs, "--image-dims", "36",
                   "--out", proj) == 0
        # rounding-level entries once joined x-slices at spacings 0.7 and
        # 0.3 into 464x4608 and 174x1728 components, over this limit: the
        # system's 2592 rows, 13824 voxels and 48552 entries with one
        # slice's factorization, (24 + 34) rows x 576 voxels, whose QR
        # stacks 58 + 4 * 58 of them at a time, three times over;
        # one-pixel march blocks keep the march's scratch below it
        monkeypatch.setattr(geometry, "_MARCH_BLOCK", 1)
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", geometry._require_memory(
            "", 2592, 13824, 48552, dense=3 * 5 * 58 * 58))
        assert run("reconstruct", "voxels", "--sino1", proj / "sino1.csv",
                   "--sino2", proj / "sino2.csv", "--grid-dims", "24,24,24",
                   "--spacing", spacing, *specs, "--out", rec) == 0
        assert json.loads((rec / "system.json").read_text())["rank"] == 1392

    def test_voxels_tiny_sinograms_recover_nonzero_values(self, tmp_path):
        # CGLS once squared values near 1e-200 to zero and wrote all zeros
        (tmp_path / "s.csv").write_text("1e-200,2e-200\n3e-200,4e-200\n")
        rec = tmp_path / "rec"
        assert run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                   "--sino2", tmp_path / "s.csv", "--grid-dims", "2,2,2",
                   *_SPECS, "--out", rec) == 0
        vals = np.loadtxt(rec / "recovered.csv", delimiter=",")
        assert 1e-202 < vals.max() < 1e-199

    @pytest.mark.parametrize("spacing", [1e-200, 1e200])
    def test_voxels_extreme_spacing_scales_the_solution(self, spacing,
                                                        tmp_path):
        # CGLS once squared entries near 1e-200 to zero and wrote all
        # zeros, and overflowed near 1e200 (exit 4); the solution is the
        # unit-spacing one divided by the spacing
        (tmp_path / "s.csv").write_text("1,2\n3,4\n")
        vals = []
        for h in (1.0, spacing):
            rec = tmp_path / f"rec{h}"
            assert run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                       "--sino2", tmp_path / "s.csv", "--grid-dims", "2,2,2",
                       "--spacing", str(h), *_SPECS, "--out", rec) == 0
            vals.append(np.loadtxt(rec / "recovered.csv", delimiter=","))
        assert vals[0].max() > 0
        np.testing.assert_allclose(vals[1] * spacing, vals[0], rtol=1e-12)

    def test_voxels_general_pair_writes_the_pseudo_inverse(self, tmp_path):
        # XY beside the 30 degree tilt turned 17 degrees about z, 10^3 with
        # a 16^2 image: the conjugate-gradient solve this replaced wrote
        # values 4.4e-2 (relative to the largest) away from max(A^+ b, 0)
        argv = voxel_pair(tmp_path, "general", 10)
        rec = tmp_path / "rec"
        assert run(*argv, "--out", rec) == 0
        specs = [ser.load_spec(tmp_path / f"spec{i}.json") for i in (1, 2)]
        sinos = [ser.load_sinogram_csv(tmp_path / f"sino{i}.csv")
                 for i in (1, 2)]
        system = recon.build_radon_system(
            specs, geometry.GridHeader((10, 10, 10), 1.0, np.zeros(3)), sinos)
        want = np.maximum(np.linalg.pinv(system.rows.toarray(),
                                         rcond=recon._RANK_TOL)
                          @ system.rhs, 0.0).reshape(10, 10, 10)
        got = ser.load_voxels(rec / "recovered.json").values
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)

    def test_voxels_coaxial(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("1.0\n")
        code = run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                   "--sino2", tmp_path / "s.csv", "--grid-dims", "1,1,1",
                   "--spec1", SPEC_XY, "--spec2", SPEC_XY,
                   "--out", tmp_path / "out")
        assert code == 3


    def test_points_zero_weights(self, tmp_path):
        # the transversality margin needs no mass, so massless images
        # reconstruct and certify like any other
        img = tmp_path / "img.json"
        img.write_text('{"points": [{"p": [1.0, 2.0], "w": 0.0}]}')
        rec = tmp_path / "rec"
        assert run("reconstruct", "points", "--image1", img, "--image2", img,
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ, "--out", rec) == 0
        for name in ("reconstructed.json", "certificate.json",
                     "summary.json", "run.json"):
            assert (rec / name).exists()
        assert json.loads((rec / "certificate.json").read_text())["unique"]
        np.testing.assert_array_equal(
            ser.load_cloud(rec / "reconstructed.json").positions, [[1, 1.5, 2]])


def near_coaxial_inputs(tmp_path, theta=5e-9):
    """XY and a frame tilted by theta about e1: |n1 x n2| = sin(theta) is
    above the default tol 1e-9, but 1 - (n1 . n2)^2 rounds to 0."""
    c, s = np.cos(theta), np.sin(theta)
    ser.save_spec(ProjectionSpec([1, 0, 0], [0, c, s], [0, -s, c]),
                  tmp_path / "tilt.json")
    cloud = ser.load_cloud(CLOUD)
    for name, spec in (("image1", coordinate_spec(2)),
                       ("image2", ser.load_spec(tmp_path / "tilt.json"))):
        ser.save_image(project_points(cloud, spec), tmp_path / f"{name}.json")
    return tmp_path / "tilt.json"


class TestNearCoaxial:
    """Transverse by the tolerance yet almost coaxial: exit 0, finite."""

    def test_reconstruct_points(self, tmp_path, capsys):
        tilt = near_coaxial_inputs(tmp_path)
        rec = tmp_path / "rec"
        assert run("reconstruct", "points", "--image1",
                   tmp_path / "image1.json", "--image2",
                   tmp_path / "image2.json", "--spec1", SPEC_XY,
                   "--spec2", tilt, "--out", rec) == 0
        assert capsys.readouterr().err == ""
        got = ser.load_cloud(rec / "reconstructed.json")
        assert np.all(np.isfinite(got.positions))

    def test_noise_study(self, tmp_path, capsys):
        tilt = near_coaxial_inputs(tmp_path)
        out = tmp_path / "out"
        assert run("noise-study", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", tilt, "--sigmas", "0.0,0.01", "--trials", "3",
                   "--out", out) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "noise.csv").read_text().strip().splitlines()[2:]
        vals = [float(x) for row in rows for x in row.split(",")]
        assert len(vals) == 10 and np.all(np.isfinite(vals))


class TestOneTransversalityMargin:
    """Every gate and the certificate read |n1 x n2|: 0.5 for XY against a
    view tilted 30 degrees, whose smallest moment-differential singular
    value, 0.366, once decided the certificate alone."""

    def inputs(self, tmp_path):
        ser.save_spec(TILT_30, tmp_path / "tilt.json")
        proj = tmp_path / "proj"
        assert run("project", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", tmp_path / "tilt.json", "--out", proj) == 0
        return tmp_path / "tilt.json", proj

    def certify(self, tilt, tol, out):
        assert run("certify", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", tilt,
                   "--field-x", fixture_path("field_coord_x.json"),
                   "--field-y", fixture_path("field_coord_y.json"),
                   "--connection", fixture_path("conn_flat.json"),
                   "--tol", tol, "--out", out) == 0
        return json.loads((out / "certificate.json").read_text())

    def test_passes_between_the_two_old_margins(self, tmp_path):
        tilt, proj = self.inputs(tmp_path)
        rec = tmp_path / "rec"
        assert run("reconstruct", "points", "--image1", proj / "image1.json",
                   "--image2", proj / "image2.json", "--spec1", SPEC_XY,
                   "--spec2", tilt, "--tol", "0.4", "--out", rec) == 0
        cert = json.loads((rec / "certificate.json").read_text())
        assert cert["transversality"]["pass"] is True
        assert cert["unique"] is True
        assert set(cert["transversality"]) == {"cross_norm", "pass"}
        assert cert["transversality"]["cross_norm"] == pytest.approx(0.5)
        full = self.certify(tilt, "0.4", tmp_path / "cert")
        assert full["transversality"]["pass"] is True
        assert full["unique"] is True

    def test_every_gate_fails_above_the_margin(self, tmp_path, capsys):
        tilt, proj = self.inputs(tmp_path)
        specs = ("--spec1", SPEC_XY, "--spec2", tilt, "--tol", "0.6")
        for argv in (("project", "--input", CLOUD, "--check-transversal"),
                     ("reconstruct", "points",
                      "--image1", proj / "image1.json",
                      "--image2", proj / "image2.json"),
                     ("noise-study", "--input", CLOUD, "--sigmas", "0.01",
                      "--trials", "2")):
            capsys.readouterr()
            assert run(*argv, *specs, "--out", tmp_path / "fail") == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert json.loads(err[0])["error"] == "NonTransverse"
        assert not (tmp_path / "fail" / "run.json").exists()
        cert = self.certify(tilt, "0.6", tmp_path / "cert")
        assert cert["transversality"]["pass"] is False
        assert cert["unique"] is False


class TestBoundaryValidation:
    """Bad input exits 2 with exactly one JSON error line on stderr."""

    def error(self, capsys):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

    def test_lattices_nine_times_apart_exit_2(self, tmp_path, capsys):
        # spacings 1e-13 and 9e-13 once matched, and hantjies combined
        # fields on both lattices into a wrong answer
        x = grid_file(fixture_path("field_contact_x.json"),
                      tmp_path / "x.json", spacing=1e-13)
        y = grid_file(fixture_path("field_contact_y.json"),
                      tmp_path / "y.json", spacing=9e-13)
        c = grid_file(fixture_path("conn_flat.json"), tmp_path / "c.json",
                      spacing=1e-13)
        out = tmp_path / "out"
        assert run("diagnose", "hantjies", "--field-x", x, "--field-y", y,
                   "--connection", c, "--out", out) == 2
        assert self.error(capsys)["error"] == "HeaderMismatch"
        assert not (out / "run.json").exists()

    def test_nan_sinogram(self, tmp_path, capsys):
        (tmp_path / "s1.csv").write_text("1.0,nan\n2.0,3.0\n")
        (tmp_path / "s2.csv").write_text("1.0,2.0\n2.0,3.0\n")
        code = run("reconstruct", "voxels", "--sino1", tmp_path / "s1.csv",
                   "--sino2", tmp_path / "s2.csv", "--grid-dims", "2,2,2",
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                   "--out", tmp_path / "out")
        assert code == 2
        assert self.error(capsys)["error"] == "DimMismatch"

    def test_nan_image(self, tmp_path, capsys):
        (tmp_path / "img.json").write_text(
            '{"points": [{"p": [NaN, 0.0], "w": 1.0}]}')
        code = run("reconstruct", "points", "--image1", tmp_path / "img.json",
                   "--image2", tmp_path / "img.json", "--spec1", SPEC_XY,
                   "--spec2", SPEC_YZ, "--out", tmp_path / "out")
        assert code == 2
        assert self.error(capsys)["error"] == "DimMismatch"

    # each size is rejected before anything of that size is allocated;
    # 10^7 cubed once raised numpy's "array is too big" and the others
    # its _ArrayMemoryError
    @pytest.mark.parametrize("argv", [
        ("reconstruct", "voxels", "--grid-dims", "1000000,1000000,1000000"),
        ("reconstruct", "voxels", "--grid-dims", "10000000,10000000,10000000"),
        ("reconstruct", "voxels", "--grid-dims", "320,320,320"),
        ("project", "--mode", "voxels", "--image-dims", "1000000"),
        ("project", "--mode", "voxels", "--image-dims", "5792"),
    ])
    def test_oversized_grid_or_image(self, argv, tmp_path, capsys):
        grid = VoxelGrid((3, 3, 3), 1.0, (-1, -1, -1), np.ones((3, 3, 3)))
        ser.save_voxels(grid, tmp_path / "grid.json")
        (tmp_path / "s.csv").write_text("1.0,2.0\n2.0,3.0\n")
        extra = (("--sino1", tmp_path / "s.csv", "--sino2", tmp_path / "s.csv")
                 if argv[0] == "reconstruct" else
                 ("--input", tmp_path / "grid.json"))
        out = tmp_path / "out"
        code = run(*argv, *extra, "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                   "--out", out)
        assert code == 2
        err = self.error(capsys)
        assert err["error"] == "SystemTooLarge"
        assert "bytes, above the 268435456-byte limit" in err["message"]
        assert list(out.iterdir()) == []

    def test_dense_rank_over_limit(self, tmp_path, capsys, monkeypatch,
                                   needs):
        # the factor guard refuses before the largest component is
        # densified: a limit just below its count, and above every other
        # guard's
        argv = voxel_pair(tmp_path, "general", 12)
        assert run(*argv, "--out", tmp_path / "ok") == 0
        svd = needs[-1]
        assert max(needs[:-1]) < svd
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", svd - 1)
        assert run(*argv, "--out", tmp_path / "out") == 2
        err = self.error(capsys)
        assert err["error"] == "SystemTooLarge"
        assert re.search(r"factoring the 468x1728 Radon matrix by its dense "
                         rf"\d+x1728 component needs {svd} bytes",
                         err["message"])
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("spacing", ["inf", "-inf"])
    def test_infinite_spacing(self, spacing, tmp_path, capsys):
        # -inf * 0 in the centred origin once ended the run as a
        # NumericalError (exit 4) before the header checked the spacing
        (tmp_path / "s.csv").write_text("1.0,2.0\n2.0,3.0\n")
        out = tmp_path / "out"
        code = run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                   "--sino2", tmp_path / "s.csv", "--grid-dims", "1,2,2",
                   f"--spacing={spacing}", *_SPECS, "--out", out)
        assert code == 2
        assert self.error(capsys)["error"] == "DimMismatch"
        assert not out.exists()

    def test_subnormal_spacing(self, tmp_path, capsys):
        # at 1e-310 the operator lost bits against the spacing times the
        # unit-spacing one, and the solve overflowed
        (tmp_path / "s.csv").write_text("1.0,2.0\n2.0,3.0\n")
        out = tmp_path / "out"
        code = run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                   "--sino2", tmp_path / "s.csv", "--grid-dims", "2,2,2",
                   "--spacing", "1e-310", *_SPECS, "--out", out)
        assert code == 2
        err = self.error(capsys)
        assert err["error"] == "DimMismatch"
        assert ">= 2^-1022, got 1e-310" in err["message"]
        assert not out.exists()

    def test_solver_tol_is_unknown(self, tmp_path, capsys):
        # the voxel solve is direct: it has no iteration to stop
        (tmp_path / "s.csv").write_text("1.0,2.0\n2.0,3.0\n")
        code = run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                   "--sino2", tmp_path / "s.csv", "--grid-dims", "2,2,2",
                   *_SPECS, "--solver-tol", "1e-10", "--out", tmp_path / "out")
        assert code == 2
        err = self.error(capsys)
        assert err["error"] == "InputError"
        assert "unrecognized arguments: --solver-tol" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_transversality_tol_on_coaxial_frames(self, tol, tmp_path,
                                                      capsys):
        proj = tmp_path / "proj"
        assert run("project", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", SPEC_YZ, "--out", proj) == 0
        capsys.readouterr()
        for argv in (("project", "--input", CLOUD, "--check-transversal"),
                     ("reconstruct", "points",
                      "--image1", proj / "image1.json",
                      "--image2", proj / "image2.json")):
            code = run(*argv, "--spec1", SPEC_XY, "--spec2", SPEC_XY,
                       f"--tol={tol}", "--out", tmp_path / "out")
            assert code == 2
            assert self.error(capsys)["error"] == "DimMismatch"

    FIELDS = ("--field-x", fixture_path("field_coord_x.json"),
              "--field-y", fixture_path("field_coord_y.json"),
              "--connection", fixture_path("conn_flat.json"))
    CERTIFY = ("certify", "--input", CLOUD, "--spec1", SPEC_XY,
               "--spec2", SPEC_YZ, *FIELDS)
    HANTJIES = ("diagnose", "hantjies", *FIELDS)

    @pytest.mark.parametrize("argv, message", [
        ((*CERTIFY, "--tol", "nan"), "non-finite tol"),
        ((*CERTIFY, "--tol-int", "nan"), "non-finite tol"),
        ((*HANTJIES, "--tol-int", "nan"), "non-finite tol"),
        ((*HANTJIES, "--tol-int", "-1"), "tol must be >= 0, got -1.0"),
        (("toric", "detect", "--input", CLOUD, "--orders", "2,3",
          "--tol", "nan"), "non-finite tol"),
    ])
    def test_bad_diagnostic_tol(self, argv, message, tmp_path, capsys):
        # certify once wrote a bare NaN into certificate.json
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 2
        err = self.error(capsys)
        assert err["error"] == "DimMismatch"
        assert message in err["message"]
        assert not out.exists()

    SPECS = ("--spec1", SPEC_XY, "--spec2", SPEC_YZ)
    INFINITE_TOL = {
        "project": ("project", "--input", CLOUD, "--check-transversal",
                    *SPECS, "--tol", "inf"),
        "reconstruct-points": ("reconstruct", "points",
                               "--image1", "{proj}/image1.json",
                               "--image2", "{proj}/image2.json",
                               *SPECS, "--tol", "inf"),
        "reconstruct-voxels": ("reconstruct", "voxels",
                               "--sino1", "{proj}/s.csv",
                               "--sino2", "{proj}/s.csv",
                               "--grid-dims", "2,2,2", *SPECS,
                               "--tol", "inf"),
        "certify-tol": (*CERTIFY, "--tol", "inf"),
        "certify-tol-int": (*CERTIFY, "--tol-int", "inf"),
        "noise-study": ("noise-study", "--input", CLOUD, *SPECS,
                        "--sigmas", "0.01", "--tol", "inf"),
        "toric-detect": ("toric", "detect", "--input", CLOUD,
                         "--orders", "2,3", "--tol", "inf"),
        "hantjies-tol-int": (*HANTJIES, "--tol-int", "inf"),
    }

    @pytest.mark.parametrize("case", sorted(INFINITE_TOL))
    def test_infinite_tol(self, case, tmp_path, capsys):
        # inf once passed every verdict and wrote Infinity, which is not
        # JSON, into certificate.json and report.json
        proj = tmp_path / "proj"
        assert run("project", "--input", CLOUD, *self.SPECS,
                   "--out", proj) == 0
        (proj / "s.csv").write_text("1.0,2.0\n2.0,3.0\n")
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [str(a).format(proj=proj) for a in self.INFINITE_TOL[case]]
        assert run(*argv, "--out", out) == 2
        err = self.error(capsys)
        assert err["error"] == "DimMismatch"
        assert "non-finite tol" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["-2", "0"])
    def test_bad_image_dims(self, dims, tmp_path, capsys):
        # -2 ended in a raw ValueError; 0 was taken as "use the default"
        grid = VoxelGrid((3, 3, 3), 1.0, (-1, -1, -1), np.ones((3, 3, 3)))
        ser.save_voxels(grid, tmp_path / "grid.json")
        ser.save_spec(TILT_30, tmp_path / "tilt.json")
        out = tmp_path / "out"
        code = run("project", "--input", tmp_path / "grid.json",
                   "--mode", "voxels", "--spec1", tmp_path / "tilt.json",
                   "--spec2", SPEC_YZ, "--image-dims", dims, "--out", out)
        assert code == 2
        assert self.error(capsys)["error"] == "DimMismatch"
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["a,b", "1,2", "2,0,2", "2,2,2,2", ""])
    def test_bad_grid_dims(self, dims, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("1.0,2.0\n2.0,3.0\n")
        code = run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                   "--sino2", tmp_path / "s.csv", "--grid-dims", dims,
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                   "--out", tmp_path / "out")
        assert code == 2
        # GridHeader, not the CLI, refuses a count or a dimension; either
        # refusal names the option
        err = self.error(capsys)
        assert err["error"] == (
            "InputError" if dims in ("a,b", "") else "DimMismatch")
        assert "--grid-dims" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("toric", "detect", "--input", CLOUD, "--orders", "a"),
        ("noise-study", "--input", CLOUD, "--spec1", SPEC_XY,
         "--spec2", SPEC_YZ, "--sigmas", "x"),
        ("toric", "solve", "--order", "4", "--axis", "a,b"),
        ("toric", "solve", "--order", "4", "--axis", "0,0"),
        ("toric", "solve", "--order", "4", "--axis", "0,0,0"),
    ])
    def test_bad_comma_list(self, argv, tmp_path, capsys):
        (tmp_path / "cons.json").write_text(
            '{"rows": [{"omega": [1, 0, 0]}], "dim": 3}')
        option, value = argv[-2:]
        if argv[1] == "solve":
            argv += ("--constraints", tmp_path / "cons.json")
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 2
        # the solver's axis check, not the CLI, refuses a count or a zero
        # axis; every refusal names the option
        err = self.error(capsys)
        assert err["error"] == (
            "DimMismatch" if value in ("0,0", "0,0,0") else "InputError")
        assert option in err["message"]
        assert not out.exists()

    # every input named is missing, so a refusal that came after reading
    # one would be that file's InputError
    MISSING_SPECS = ("--spec1", "no_spec1.json", "--spec2", "no_spec2.json")
    MISSING_FIELDS = ("--field-x", "no_x.json", "--field-y", "no_y.json",
                      "--connection", "no_conn.json")
    OPTION_REFUSALS = {
        "orders": (("toric", "detect", "--input", "no.json",
                    "--orders", "1,3"),
                   "--orders: symmetry orders must be one or more"),
        "spacing-0": (("reconstruct", "voxels", "--sino1", "no.csv",
                       "--sino2", "no.csv", "--grid-dims", "2,2,2",
                       *MISSING_SPECS, "--spacing", "0"),
                      "--spacing: spacing must be finite and >= 2^-1022"),
        "spacing-nan": (("reconstruct", "voxels", "--sino1", "no.csv",
                         "--sino2", "no.csv", "--grid-dims", "2,2,2",
                         *MISSING_SPECS, "--spacing", "nan"),
                        "--spacing: non-finite spacing"),
        "order": (("toric", "solve", "--constraints", "no.json",
                   "--axis", "0,0,1", "--order", "1"),
                  "--order: order must be >= 2, got 1"),
        "trials": (("noise-study", "--input", "no.json", *MISSING_SPECS,
                    "--sigmas", "0.01", "--trials", "0"),
                   "--trials: trials must be >= 1, got 0"),
        "seed": (("noise-study", "--input", "no.json", *MISSING_SPECS,
                  "--sigmas", "0.01", "--seed", "-1"),
                 "--seed: seed must be >= 0, got -1"),
        "trials-too-many": (("noise-study", "--input", "no.json",
                             *MISSING_SPECS, "--sigmas", "0.01",
                             "--trials", "100000000000000"),
                            "--trials: a noise study of 100000000000000 "
                            "trials needs 800000000000000 bytes"),
        "tol-negative": (("project", "--input", "no.json", *MISSING_SPECS,
                          "--tol", "-1"),
                         "--tol: tol must be >= 0, got -1.0"),
        "tol-nan": (("toric", "detect", "--input", "no.json",
                     "--tol", "nan"),
                    "--tol: non-finite tol"),
        "tol-int": (("diagnose", "hantjies", *MISSING_FIELDS,
                     "--tol-int", "-1"),
                    "--tol-int: tol must be >= 0, got -1.0"),
        "image-dims": (("project", "--mode", "voxels", "--input", "no.json",
                        *MISSING_SPECS, "--image-dims", "0"),
                       "--image-dims: image dim must be >= 1, got 0"),
        "grid-dims": (("reconstruct", "voxels", "--sino1", "no.csv",
                       "--sino2", "no.csv", "--grid-dims", "2,0,2",
                       *MISSING_SPECS),
                      "--grid-dims: dims must be three integers >= 1"),
        "axis": (("toric", "solve", "--constraints", "no.json",
                  "--axis", "0,0,0", "--order", "4"), "--axis: "),
        "sigmas": (("noise-study", "--input", "no.json", *MISSING_SPECS,
                    "--sigmas", "nan"), "--sigmas: non-finite sigma"),
    }

    # the refusals that are not a DimMismatch
    OPTION_ERRORS = {"trials-too-many": "SystemTooLarge"}

    @pytest.mark.parametrize("case", sorted(OPTION_REFUSALS))
    def test_option_refused_by_name_before_any_input(self, case, tmp_path,
                                                     monkeypatch, capsys):
        # none of these messages named its option; --orders was checked
        # only after the cloud loaded, and a trial count too large to hold
        # only after the cloud and both specs
        monkeypatch.chdir(tmp_path)
        argv, message = self.OPTION_REFUSALS[case]
        assert run(*argv, "--out", "out") == 2
        err = self.error(capsys)
        assert err["error"] == self.OPTION_ERRORS.get(case, "DimMismatch")
        assert err["message"].startswith("value in " + message), err
        assert not (tmp_path / "out").exists()

    def test_single_value_refused_before_a_list(self, tmp_path,
                                                monkeypatch, capsys):
        # the table checks the single values before the lists, so that when
        # two values are bad the same refusal wins as when the commands
        # read the lists themselves
        monkeypatch.chdir(tmp_path)
        assert run("noise-study", "--input", "no.json", *self.MISSING_SPECS,
                   "--sigmas", "nan", "--trials", "0", "--out", "out") == 2
        err = self.error(capsys)
        assert err["message"].startswith("value in --trials: "), err
        assert not (tmp_path / "out").exists()

    def test_input_is_a_directory(self, tmp_path, capsys):
        code = run("project", "--input", tmp_path, "--spec1", SPEC_XY,
                   "--spec2", SPEC_YZ, "--out", tmp_path / "out")
        assert code == 2
        err = self.error(capsys)
        assert err["error"] == "InputError"
        assert "cannot read" in err["message"]

    def test_json_not_utf8(self, tmp_path, capsys):
        (tmp_path / "cloud.json").write_bytes(b"\xff\xfe{\x00}\x00")
        code = run("project", "--input", tmp_path / "cloud.json",
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                   "--out", tmp_path / "out")
        assert code == 2
        assert "not UTF-8" in self.error(capsys)["message"]

    @pytest.mark.parametrize("text", ["", "\r\n\r\n"])
    def test_empty_sinogram(self, text, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text(text)
        (tmp_path / "s.csv").write_text("1.0,2.0\n2.0,3.0\n")
        code = run("reconstruct", "voxels", "--sino1", tmp_path / "empty.csv",
                   "--sino2", tmp_path / "s.csv", "--grid-dims", "2,2,2",
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                   "--out", tmp_path / "out")
        assert code == 2
        err = self.error(capsys)
        assert err["error"] == "InputError"
        assert "empty sinogram" in err["message"]

    def test_nan_spec(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(
            '{"u": [NaN, 0, 0], "w": [0, 1, 0], "n": [0, 0, 1]}')
        code = run("project", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", tmp_path / "spec.json",
                   "--out", tmp_path / "out")
        assert code == 2
        assert self.error(capsys)["error"] == "DimMismatch"


def grid_file(src, dst, **header):
    """Copy the grid file `src` (.json header and .csv values) to `dst`,
    replacing the header fields given."""
    src, dst = Path(src), Path(dst)
    head = json.loads(src.read_text())
    head.update(header)
    dst.write_text(json.dumps(head))
    dst.with_suffix(".csv").write_bytes(src.with_suffix(".csv").read_bytes())
    return dst


# the second frame of each pair beside XY, and its image side per grid
# side; "wide" is a tilted image whose empty pixels outnumber the voxels
_PAIRS = {"aligned": (coordinate_spec(0), 1.0), "tilt": (TILT_30, 1.5),
          "general": (rotated_about_z(TILT_30, np.radians(17)), 1.5),
          "wide": (TILT_30, 100.0)}
# two tilted frames, each with images of one side whatever the grid: one
# pixel, whose two rays miss almost every voxel, or many more pixels than
# voxels
_TILTED_PAIRS = {"one-pixel": 1, "wide-tilts": 512}
_TILTED_PAIRS_SPECS = (TILT_30, _PAIRS["general"][0])


def voxel_pair(tmp_path, pair, n):
    """`reconstruct voxels` argv, without --out, for the sinograms of a
    random n^3 grid through XY and `pair`'s frame, a tilted image side
    1.5 n rounded to an even number, or through the two tilted frames of
    `_TILTED_PAIRS`."""
    if pair in _TILTED_PAIRS:
        m = _TILTED_PAIRS[pair]
        views = tuple((spec, m) for spec in _TILTED_PAIRS_SPECS)
    else:
        spec, scale = _PAIRS[pair]
        views = ((coordinate_spec(2), n), (spec, 2 * round(scale * n / 2)))
    grid = VoxelGrid((n, n, n), 1.0, -(n - 1) / 2 * np.ones(3),
                     np.random.default_rng(n).uniform(0.0, 1.0, (n, n, n)))
    for i, (s, k) in enumerate(views, 1):
        ser.save_spec(s, tmp_path / f"spec{i}.json")
        ser.save_sinogram_csv(project_voxels(grid, s, (k, k)),
                              tmp_path / f"sino{i}.csv")
    return ("reconstruct", "voxels", "--sino1", tmp_path / "sino1.csv",
            "--sino2", tmp_path / "sino2.csv", "--grid-dims", f"{n},{n},{n}",
            "--spec1", tmp_path / "spec1.json",
            "--spec2", tmp_path / "spec2.json")


@pytest.fixture
def needs(monkeypatch):
    """The bytes of every `_require_memory` call that passed, in order."""
    calls = []
    require = geometry._require_memory

    def spy(*args, **kwargs):
        calls.append(require(*args, **kwargs))
        return calls[-1]

    for module in (geometry, recon):
        monkeypatch.setattr(module, "_require_memory", spy)
    return calls


def traced_run(*argv):
    """The exit code of `run(*argv)` and its tracemalloc peak."""
    tracemalloc.start()
    try:
        return run(*argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryModel:
    """`geometry._require_memory`, the one size model every memory guard
    applies, bounds what the voxel ops hold and refuses before it."""

    @pytest.mark.parametrize("pair, n", [
        ("aligned", 24), ("aligned", 32), ("aligned", 40),
        ("tilt", 16), ("tilt", 20), ("tilt", 24),
        ("general", 8), ("general", 10), ("general", 12), ("wide", 3),
        ("one-pixel", 64), ("wide-tilts", 3)])
    def test_model_bounds_the_peak(self, pair, n, tmp_path, needs,
                                   monkeypatch):
        # the guards' largest count bounds the tracemalloc peak, and
        # system.mtx adds at most one write block (its whole body once took
        # 42.9 MB against 14.6 MB at 48^3); one write block is about 70 B
        # per value.  At these sizes one default march block's scratch
        # sets a tilted pair's count, so 1024-sample blocks leave it to the
        # rows, voxels and entries.  "wide-tilts" is where the row
        # coefficient is tight, "one-pixel" a grid of mostly empty columns.
        argv = voxel_pair(tmp_path, pair, n)
        peaks = []
        for block, extra in ((None, ()), (None, ("--matrix-market",)),
                             (1024, ("--matrix-market",))):
            if block:
                monkeypatch.setattr(geometry, "_MARCH_BLOCK", block)
            needs.clear()
            code, peak = traced_run(*argv, *extra,
                                    "--out", tmp_path / f"rec{len(peaks)}")
            assert code == 0
            assert peak <= max(needs), (block, extra, peak, max(needs))
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 128 * ser._WRITE_VALUES

    def test_model_bounds_the_project_peak(self, tmp_path, needs):
        # reading the grid file once took about 107 B per voxel before any
        # guard ran (41 B in all now that the reader parses the open file);
        # the model counts 55 B and one 56 B entry per voxel
        n = 64
        grid = VoxelGrid((n, n, n), 1.0, -(n - 1) / 2 * np.ones(3),
                         np.random.default_rng(n).uniform(0.0, 1.0, (n,) * 3))
        ser.save_voxels(grid, tmp_path / "grid.json")
        code, peak = traced_run("project", "--mode", "voxels", "--input",
                                tmp_path / "grid.json", *_SPECS,
                                "--out", tmp_path / "out")
        assert code == 0
        assert peak <= max(needs), (peak, max(needs))

    @pytest.mark.parametrize("pair, n", [
        ("aligned", 8), ("tilt", 8), ("general", 6), ("project", 3)])
    def test_limit_is_inclusive(self, pair, n, tmp_path, capsys, needs,
                                monkeypatch):
        if pair == "project":
            grid = VoxelGrid((n, n, n), 1.0, -np.ones(3), np.ones((n, n, n)))
            ser.save_voxels(grid, tmp_path / "grid.json")
            ser.save_spec(TILT_30, tmp_path / "tilt.json")
            argv = ("project", "--mode", "voxels", "--image-dims", "10",
                    "--input", tmp_path / "grid.json", "--spec1", SPEC_XY,
                    "--spec2", tmp_path / "tilt.json")
        else:
            argv = voxel_pair(tmp_path, pair, n)
        assert run(*argv, "--out", tmp_path / "first") == 0
        most = max(needs)
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", most)
        assert run(*argv, "--out", tmp_path / "at") == 0
        capsys.readouterr()
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", most - 1)
        assert run(*argv, "--out", tmp_path / "below") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SystemTooLarge"
        assert f"needs {most} bytes, above the {most - 1}-byte" in lines[0]
        assert list((tmp_path / "below").iterdir()) == []

    @pytest.mark.parametrize("fraction", [0.3, 0.8])
    @pytest.mark.parametrize("pair, n", [
        ("aligned", 40), ("tilt", 24), ("general", 12)])
    def test_refused_run_peaks_below_the_limit(self, pair, n, fraction,
                                               tmp_path, needs, monkeypatch):
        argv = voxel_pair(tmp_path, pair, n)
        assert run(*argv, "--out", tmp_path / "first") == 0
        limit = int(fraction * max(needs))
        monkeypatch.setattr(geometry, "_MEMORY_LIMIT", limit)
        code, peak = traced_run(*argv, "--out", tmp_path / "out")
        assert code == 2
        assert peak < limit, (peak, limit)
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("pair", ["aligned", "tilt"])
    def test_grid_over_the_limit_builds_no_operator(self, pair, tmp_path,
                                                    capsys, monkeypatch):
        # 128^3 with one entry per voxel and view is over the limit; XY
        # beside the 30 degree tilt once passed the per-voxel guard exactly
        # at the limit and needed about twice it
        def never(*args):
            raise AssertionError("projection_operator was called")

        monkeypatch.setattr(recon, "projection_operator", never)
        spec, scale = _PAIRS[pair]
        ser.save_spec(spec, tmp_path / "spec2.json")
        for i, m in enumerate((128, int(scale * 128)), 1):
            (tmp_path / f"s{i}.csv").write_text(("0," * (m - 1) + "0\n") * m)
        out = tmp_path / "out"
        assert run("reconstruct", "voxels", "--sino1", tmp_path / "s1.csv",
                   "--sino2", tmp_path / "s2.csv",
                   "--grid-dims", "128,128,128", "--spec1", SPEC_XY,
                   "--spec2", tmp_path / "spec2.json", "--out", out) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SystemTooLarge"
        assert list(out.iterdir()) == []

    def test_tilted_one_pixel_images_of_a_128_grid_are_accepted(
            self, tmp_path, needs):
        # one entry per voxel and view once counted this pair over the
        # limit before the march; the footprint's samples count 3592
        # entries per view
        for i, spec in enumerate(_TILTED_PAIRS_SPECS, 1):
            ser.save_spec(spec, tmp_path / f"spec{i}.json")
        (tmp_path / "s.csv").write_text("1.0\n")
        assert run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                   "--sino2", tmp_path / "s.csv",
                   "--grid-dims", "128,128,128",
                   "--spec1", tmp_path / "spec1.json",
                   "--spec2", tmp_path / "spec2.json",
                   "--out", tmp_path / "out") == 0
        assert needs[0] == geometry._require_memory(
            "", 2, 128 ** 3, 2 * 8 * 449)

    def test_noise_study_trials_over_the_limit(self, tmp_path, capsys):
        # np.empty(trials) once raised numpy's _ArrayMemoryError: a
        # traceback and exit 1
        out = tmp_path / "out"
        assert run("noise-study", "--input", CLOUD, *_SPECS, "--sigmas",
                   "0.01", "--trials", "100000000000000", "--out", out) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "SystemTooLarge"
        assert "100000000000000 trials needs 800000000000000 bytes" \
            in err["message"]
        assert not out.exists()


class TestGridHeaders:
    """Voxel, vector-field and connection files share one header rule:
    dims of three integers >= 1 (>= 3 for fields), a finite spacing of at
    least 2^-1022 and a finite origin.  A bad header exits 2 with one JSON line and
    writes nothing."""

    error = TestBoundaryValidation.error

    BAD = {
        "spacing-0": {"spacing": 0},
        "spacing-negative": {"spacing": -0.5},
        "spacing-nan": {"spacing": np.nan},
        "spacing-inf": {"spacing": np.inf},
        "spacing-subnormal": {"spacing": 1e-310},
        "origin-nan": {"origin": [np.nan, 0.0, 0.0]},
    }
    FIELDS = {"--field-x": "field_contact_x", "--field-y": "field_contact_y",
              "--connection": "conn_flat"}

    def hantjies(self, tmp_path, bad=(), **header):
        """`diagnose hantjies` on the packaged fields, the files of the
        options in `bad` given `header`; its exit code and out dir."""
        argv = []
        for opt, name in self.FIELDS.items():
            argv += [opt, grid_file(fixture_path(name + ".json"),
                                    tmp_path / (name + ".json"),
                                    **(header if opt in bad else {}))]
        out = tmp_path / "out"
        return run("diagnose", "hantjies", *argv, "--out", out), out

    @pytest.mark.parametrize("opt", ["--field-x", "--connection"])
    @pytest.mark.parametrize("case", [*BAD, "dims-2"])
    def test_field_header(self, case, opt, tmp_path, capsys):
        # spacing 0 once raised ZeroDivisionError, -0.5 passed at tolerance
        # 2.5, and a NaN made two identical headers differ
        header = self.BAD.get(case, {"dims": [2, 5, 5]})
        code, out = self.hantjies(tmp_path, (opt,), **header)
        assert code == 2
        assert self.error(capsys)["error"] == (
            "GridTooSmall" if case == "dims-2" else "DimMismatch")
        assert not out.exists()

    def test_default_tolerance_must_be_finite(self, tmp_path, capsys):
        # 10 h^2 overflows; Infinity once went into report.json
        code, out = self.hantjies(tmp_path, tuple(self.FIELDS),
                                  spacing=1e200)
        assert code == 2
        err = self.error(capsys)
        assert err["error"] == "DimMismatch"
        assert "non-finite tol" in err["message"]
        assert list(out.iterdir()) == []

    def project_voxels(self, path, out):
        return run("project", "--mode", "voxels", "--input", path,
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ, "--out", out)

    @pytest.mark.parametrize("case", BAD)
    def test_voxel_header(self, case, tmp_path, capsys):
        ser.save_voxels(VoxelGrid((3, 3, 3), 1.0, (0, 0, 0), np.ones(27)),
                        tmp_path / "good.json")
        grid = grid_file(tmp_path / "good.json", tmp_path / "grid.json",
                         **self.BAD[case])
        out = tmp_path / "out"
        assert self.project_voxels(grid, out) == 2
        assert self.error(capsys)["error"] == "DimMismatch"
        assert not out.exists()

    def test_one_voxel_is_a_lattice(self, tmp_path):
        # fields need 3 nodes per axis, voxel grids one
        ser.save_voxels(VoxelGrid((1, 1, 1), 1.0, (0, 0, 0), [2.0]),
                        tmp_path / "grid.json")
        out = tmp_path / "out"
        assert self.project_voxels(tmp_path / "grid.json", out) == 0
        assert (out / "sino1.csv").read_bytes() == b"2.0\r\n"


class TestNonFiniteOutput:
    error = TestBoundaryValidation.error

    def test_exit_4_and_no_file(self, tmp_path, capsys, monkeypatch):
        # a NaN or infinity is not JSON; nothing is written
        monkeypatch.setattr(diffgeo, "frobenius_residual",
                            lambda X, Y: (np.zeros((5, 5, 5)), np.inf))
        out = tmp_path / "out"
        code = run("diagnose", "frobenius",
                   "--field-x", fixture_path("field_contact_x.json"),
                   "--field-y", fixture_path("field_contact_y.json"),
                   "--out", out)
        assert code == 4
        err = self.error(capsys)
        assert err["error"] == "NumericalError"
        assert "report.json" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.fixture
    def overflowing(self, tmp_path):
        """Finite 5^3 inputs whose products overflow: X = (1e200, 0, 0),
        Y = (0, 1e200, 0), Gamma^2_01 = 1e200 and, for the Lie bracket,
        Yx = (0, 1e200, 1e200 x)."""
        header = GridHeader((5, 5, 5), 1.0, (0, 0, 0))
        gamma = np.zeros(header.dims + (3, 3, 3))
        gamma[..., 2, 0, 1] = 1e200
        x, y, yx, c = (tmp_path / f"{n}.json" for n in ("x", "y", "yx", "c"))
        ser.save_vector_field(VectorFieldGrid.constant(header, (1e200, 0, 0)),
                              x)
        ser.save_vector_field(VectorFieldGrid.constant(header, (0, 1e200, 0)),
                              y)
        ser.save_vector_field(VectorFieldGrid.from_function(
            header, lambda x, y, z: (0 * x, 1e200 + 0 * x, 1e200 * x)), yx)
        ser.save_connection(ConnectionField(header, gamma), c)
        return {"frobenius": ("--field-x", x, "--field-y", yx),
                "huge": ("--field-x", x, "--field-y", y),
                "hantjies": ("--field-x", x, "--field-y", y,
                             "--connection", c),
                "curvature": ("--field-x", x, "--field-y", y, "--field-z", y,
                              "--connection", c)}

    @pytest.mark.parametrize("check", ["frobenius", "hantjies", "curvature"])
    def test_overflow_in_a_computed_field_exits_4(self, check, overflowing,
                                                  tmp_path, capsys):
        # frobenius once printed four RuntimeWarnings before its error line;
        # hantjies and curvature blamed the finite input (HeaderMismatch)
        out = tmp_path / "out"
        assert run("diagnose", check, *overflowing[check], "--out", out) == 4
        err = self.error(capsys)
        assert err["error"] == "NumericalError"
        assert "overflows" in err["message"]
        assert list(out.iterdir()) == []

    def test_huge_fields_whose_residual_is_finite_exit_0(self, overflowing,
                                                          tmp_path):
        # |X| |Y| = 1e400 overflows, but X x Y is only scaled, not squared
        out = tmp_path / "out"
        assert run("diagnose", "frobenius", *overflowing["huge"],
                   "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_frobenius_residual"] == 0.0

    def test_a_non_finite_sample_read_stays_an_input_error(self, tmp_path,
                                                           capsys):
        x = grid_file(fixture_path("field_contact_x.json"), tmp_path / "x.json")
        rows = x.with_suffix(".csv").read_text().splitlines()
        rows[0] = "nan" + rows[0][rows[0].index(","):]
        x.with_suffix(".csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run("diagnose", "frobenius", "--field-x", x,
                   "--field-y", fixture_path("field_contact_y.json"),
                   "--out", out) == 2
        assert self.error(capsys)["error"] == "HeaderMismatch"
        assert not out.exists()


class TestCertify:
    def args(self, out, fx, fy):
        return ("certify", "--input", CLOUD, "--spec1", SPEC_XY,
                "--spec2", SPEC_YZ,
                "--field-x", fixture_path(fx + ".json"),
                "--field-y", fixture_path(fy + ".json"),
                "--connection", fixture_path("conn_flat.json"), "--out", out)

    def test_unique(self, tmp_path):
        out = tmp_path / "out"
        assert run(*self.args(out, "field_coord_x", "field_coord_y")) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["unique"] is True
        assert cert["integrability"]["pass"] is True

    def test_contact_fields_not_unique(self, tmp_path):
        out = tmp_path / "out"
        assert run(*self.args(out, "field_contact_x", "field_contact_y")) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["unique"] is False
        assert cert["integrability"]["max_frobenius_residual"] > 0.9


class TestDiagnose:
    def test_frobenius(self, tmp_path):
        out = tmp_path / "out"
        assert run("diagnose", "frobenius",
                   "--field-x", fixture_path("field_contact_x.json"),
                   "--field-y", fixture_path("field_contact_y.json"),
                   "--profile", "--out", out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_frobenius_residual"] == pytest.approx(1.0, abs=1e-6)
        assert (out / "profile.csv").exists()

    def test_hantjies(self, tmp_path):
        out = tmp_path / "out"
        assert run("diagnose", "hantjies",
                   "--field-x", fixture_path("field_coord_x.json"),
                   "--field-y", fixture_path("field_coord_y.json"),
                   "--connection", fixture_path("conn_flat.json"),
                   "--out", out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["integrable"] is True
        assert rep["max_hantjies_norm"] == 0.0

    def test_hantjies_without_torsion_at_scale_1e15(self, tmp_path):
        # an integrable plane field turned off the axes, X = f R e_x and
        # Y = g R e_y, under a random symmetric Gamma times 1e15: the
        # torsion is exactly zero, so no rounding of Gamma(X, Y) - Gamma(Y,
        # X) reaches the verdict (it once reported 1.1, not integrable)
        header = GridHeader((8, 8, 8), 0.1, (-0.35, -0.35, -0.35))
        rng = np.random.default_rng(0)
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        pos = header.node_positions()
        f = 1 + 0.5 * np.sin(pos @ (1.0, 2.0, -1.0))
        g = np.exp(0.3 * pos[..., 2])
        ser.save_vector_field(VectorFieldGrid(header, f[..., None] * R[:, 0]),
                              tmp_path / "x.json")
        ser.save_vector_field(VectorFieldGrid(header, g[..., None] * R[:, 1]),
                              tmp_path / "y.json")
        gamma = rng.standard_normal(header.dims + (3, 3, 3))
        ser.save_connection(ConnectionField(
            header, 1e15 * (gamma + np.swapaxes(gamma, -1, -2))),
            tmp_path / "conn.json")
        out = tmp_path / "out"
        assert run("diagnose", "hantjies", "--field-x", tmp_path / "x.json",
                   "--field-y", tmp_path / "y.json",
                   "--connection", tmp_path / "conn.json", "--out", out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_hantjies_norm"] == 0.0
        assert rep["integrable"] is True

    def test_curvature(self, tmp_path):
        out = tmp_path / "out"
        assert run("diagnose", "curvature",
                   "--field-x", fixture_path("field_coord_x.json"),
                   "--field-y", fixture_path("field_coord_y.json"),
                   "--field-z", fixture_path("field_coord_x.json"),
                   "--connection", fixture_path("conn_flat.json"),
                   "--out", out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_curvature_norm"] == 0.0

    def test_curvature_max_over_interior(self, tmp_path):
        # round sphere in (theta, phi): nonzero curvature everywhere, and
        # the one-sided boundary stencils give other values at the faces
        header = GridHeader((7, 7, 5), 0.15, (0.6, 0.0, 0.0))
        X = VectorFieldGrid.constant(header, (1, 0, 0))
        Y = VectorFieldGrid.constant(header, (0, 1, 0))
        Z = VectorFieldGrid.from_function(
            header, lambda x, y, z: (x * y, 1 + x * x, 0 * z))
        conn = sphere_connection(header)
        for name, obj in (("x", X), ("y", Y), ("z", Z)):
            ser.save_vector_field(obj, tmp_path / f"{name}.json")
        ser.save_connection(conn, tmp_path / "conn.json")
        out = tmp_path / "out"
        assert run("diagnose", "curvature", "--field-x", tmp_path / "x.json",
                   "--field-y", tmp_path / "y.json",
                   "--field-z", tmp_path / "z.json",
                   "--connection", tmp_path / "conn.json", "--out", out) == 0
        got = json.loads((out / "report.json").read_text())
        norms = np.linalg.norm(curvature(conn, X, Y, Z).samples, axis=-1)
        interior = float(norms[INTERIOR].max())
        assert got["max_curvature_norm"] == interior
        assert interior > 0.1
        assert abs(float(norms.max()) - interior) > 1e-3

    def test_jacobiator(self, tmp_path):
        out = tmp_path / "out"
        assert run("diagnose", "jacobiator",
                   "--field-x", fixture_path("field_coord_x.json"),
                   "--field-y", fixture_path("field_coord_y.json"),
                   "--field-z", fixture_path("field_contact_x.json"),
                   "--out", out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_jacobiator_norm"] <= 1e-10

    def test_algebra(self, tmp_path):
        out = tmp_path / "out"
        assert run("diagnose", "algebra",
                   "--table", fixture_path("z4_table.csv"),
                   "--strict", "--out", out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["associative"] is True
        assert rep["moufang"] is True
        assert rep["associative_witness"] is None

    def test_algebra_nonassociative(self, tmp_path):
        idx = np.arange(5)
        table = (2 * idx[:, None] + idx[None, :]) % 5
        from twoview.algebra import FiniteMagma
        ser.save_magma(FiniteMagma(table), tmp_path / "t.csv")
        out = tmp_path / "out"
        assert run("diagnose", "algebra", "--table", tmp_path / "t.csv",
                   "--out", out) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["associative"] is False
        assert rep["moufang"] is False
        assert rep["associative_witness"] is not None


class TestDiagnoseErrors:
    """A missing or malformed diagnose input exits 2 with one JSON line."""

    FX = ("--field-x", fixture_path("field_coord_x.json"))
    FY = ("--field-y", fixture_path("field_coord_y.json"))
    FZ = ("--field-z", fixture_path("field_contact_x.json"))
    CONN = ("--connection", fixture_path("conn_flat.json"))

    error = TestBoundaryValidation.error

    @pytest.mark.parametrize("check, needs", [
        ("algebra", ["--table"]),
        ("frobenius", ["--field-x", "--field-y"]),
        ("hantjies", ["--field-x", "--field-y", "--connection"]),
        ("curvature", ["--field-x", "--field-y", "--field-z",
                       "--connection"]),
        ("jacobiator", ["--field-x", "--field-y", "--field-z"]),
    ])
    def test_each_missing_option_is_named(self, check, needs, tmp_path,
                                          capsys):
        given = {"--table": fixture_path("z4_table.csv"),
                 **dict([self.FX, self.FY, self.FZ, self.CONN])}
        for absent in needs:
            argv = [a for opt in needs if opt != absent
                    for a in (opt, given[opt])]
            out = tmp_path / absent
            assert run("diagnose", check, *argv, "--out", out) == 2
            err = self.error(capsys)
            assert err["error"] == "InputError"
            assert absent in err["message"]
            assert not (out / "run.json").exists()

    def test_twist_missing_file(self, tmp_path, capsys):
        code = run("diagnose", "jacobiator", *self.FX, *self.FY, *self.FZ,
                   "--twist", tmp_path / "absent.json",
                   "--out", tmp_path / "out")
        assert code == 2
        assert "no such file" in self.error(capsys)["message"]

    @pytest.mark.parametrize("twist", [
        "[[1, 2], [3, 4]]", '{"c": 1}', '[[[0, 1, 0]], [[1]]]', "7",
        "[" + ",".join(["[[0, 0, 0], [0, 0, 0], [0, 0, NaN]]"] * 3) + "]",
    ])
    def test_twist_wrong_shape(self, twist, tmp_path, capsys):
        (tmp_path / "twist.json").write_text(twist)
        code = run("diagnose", "jacobiator", *self.FX, *self.FY, *self.FZ,
                   "--twist", tmp_path / "twist.json",
                   "--out", tmp_path / "out")
        assert code == 2
        err = self.error(capsys)
        assert err["error"] == "DimMismatch"
        assert "--twist" in err["message"]

    def test_twist_file_is_read(self, tmp_path):
        from twoview.algebra import TwistMap
        from twoview.diffgeo import GridHeader, VectorFieldGrid
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        (tmp_path / "twist.json").write_text(
            json.dumps(TwistMap.from_cross_product(A).coeffs.tolist()))
        header = GridHeader((7, 7, 7), 0.1, (0, 0, 0))
        e = np.eye(3)
        for name, v in zip("xyz", e):
            ser.save_vector_field(VectorFieldGrid.constant(header, v),
                                  tmp_path / f"{name}.json")
        out = tmp_path / "out"
        assert run("diagnose", "jacobiator", "--field-x", tmp_path / "x.json",
                   "--field-y", tmp_path / "y.json",
                   "--field-z", tmp_path / "z.json",
                   "--twist", tmp_path / "twist.json", "--out", out) == 0
        expected = sum(A @ np.cross(u, A @ np.cross(v, w))
                       for u, v, w in ((e[0], e[1], e[2]), (e[1], e[2], e[0]),
                                       (e[2], e[0], e[1])))
        rep = json.loads((out / "report.json").read_text())
        assert rep["max_jacobiator_norm"] == pytest.approx(
            np.linalg.norm(expected), abs=1e-12)
        assert rep["max_jacobiator_norm"] > 0.1


class TestToric:
    def test_detect_hexagon(self, tmp_path):
        ang = 2 * np.pi * np.arange(6) / 6
        pts = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)])
        ser.save_cloud(PointCloud(pts, np.ones(6)), tmp_path / "hex.json")
        out = tmp_path / "out"
        assert run("toric", "detect", "--input", tmp_path / "hex.json",
                   "--orders", "2,3,4,6", "--out", out) == 0
        rep = json.loads((out / "toric.json").read_text())
        assert rep["order"] == 6
        np.testing.assert_allclose(np.abs(rep["axis"]), [0, 0, 1], atol=1e-9)
        assert rep["invariance_residual"] <= 1e-10

    def test_detect_tol_default_is_the_cli_default(self):
        # the library once defaulted to 1e-8 beside the CLI's 1e-9
        tol = inspect.signature(toric.detect_axis).parameters["tol"]
        assert tol.default == cli._TOL["--tol"]["default"] == 1e-9

    def test_detect_without_scipy(self, tmp_path, capsys, monkeypatch):
        # scoring failing rotations needs scipy.spatial; without it the run
        # once ended in a raw ImportError traceback and exit 1
        monkeypatch.setitem(sys.modules, "scipy.spatial", None)
        out = tmp_path / "out"
        assert run("toric", "detect", "--input", CLOUD, "--orders", "2,3",
                   "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "InputError"
        assert "scipy.spatial" in json.loads(err[0])["message"]
        assert not (out / "run.json").exists()
        (tmp_path / "hex").mkdir()
        self.test_detect_hexagon(tmp_path / "hex")  # a match needs no scipy

    def test_solve(self, tmp_path):
        cons = {"rows": [{"omega": [1, 0, 0]}, {"omega": [0, 1, 0]}],
                "dim": 3}
        (tmp_path / "cons.json").write_text(json.dumps(cons))
        out = tmp_path / "out"
        assert run("toric", "solve", "--constraints", tmp_path / "cons.json",
                   "--axis", "0,0,1", "--order", "4", "--out", out) == 0
        rep = json.loads((out / "direction.json").read_text())
        np.testing.assert_allclose(np.abs(rep["v"]), [0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("axis, unit", [
        ("1e200,1e200,0", "1,1,0"), ("1e-200,1e-200,0", "1,1,0"),
        ("0,0,1e-320", "0,0,1")], ids=["huge", "tiny", "subnormal"])
    def test_solve_axis_scale_does_not_matter(self, axis, unit, tmp_path):
        # 1e200 once overflowed in the axis norm (exit 4); 1e-200 and
        # 1e-320 were refused as zero axes (exit 2)
        (tmp_path / "cons.json").write_text(json.dumps(
            {"rows": [{"omega": [1, 0, 0], "rhs": 1.0},
                      {"omega": [0, 0, 1], "rhs": 1.0}]}))
        reps = []
        for name, a in (("scaled", axis), ("unit", unit)):
            assert run("toric", "solve", "--constraints",
                       tmp_path / "cons.json", "--axis", a, "--order", "4",
                       "--out", tmp_path / name) == 0
            reps.append(json.loads(
                (tmp_path / name / "direction.json").read_text()))
        assert reps[0]["nullity"] == reps[1]["nullity"] == 0
        np.testing.assert_allclose(reps[0]["v"], reps[1]["v"], rtol=0,
                                   atol=4e-16)

    def test_solve_huge_order(self, tmp_path):
        # a group average summed over the rotations would not finish
        (tmp_path / "cons.json").write_text(json.dumps(
            {"rows": [{"omega": [1, 0, 0]}, {"omega": [0, 1, 0]}]}))
        out = tmp_path / "out"
        assert run("toric", "solve", "--constraints", tmp_path / "cons.json",
                   "--axis", "0,0,1", "--order", "3000000", "--out", out) == 0
        rep = json.loads((out / "direction.json").read_text())
        assert rep["v"] == [0.0, 0.0, 1.0]

    def test_solve_malformed(self, tmp_path, capsys):
        (tmp_path / "cons.json").write_text('{"wrong": 1}')
        code = run("toric", "solve", "--constraints", tmp_path / "cons.json",
                   "--axis", "0,0,1", "--order", "4",
                   "--out", tmp_path / "out")
        assert code == 2

    @pytest.mark.parametrize("dim", ["5", "3.7", '"4"', "true", "null",
                                     "1" + "0" * 400, "3.0", "4.0"],
                             ids=["5", "3.7", '"4"', "true", "null", "1e400",
                                  "3.0", "4.0"])
    def test_solve_dim_must_be_3_or_4(self, dim, tmp_path, capsys):
        # the loader once took int(dim): 3.7 solved as dim 3 (exit 0), "4"
        # as dim 4, and true was refused as "got 1"; the solver then
        # refused dim outside the loader, naming no file, and echoed it
        # whole: 1 and 400 zeros gave a 465-byte line.  3.0 and 4.0 then
        # still solved as dims 3 and 4
        cons = tmp_path / "cons.json"
        cons.write_text('{"rows": [{"omega": [1, 0, 0]}, '
                        '{"omega": [0, 1, 0]}], "dim": %s}' % dim)
        out = tmp_path / "out"
        assert run("toric", "solve", "--constraints", cons,
                   "--axis", "0,0,1", "--order", "4", "--out", out) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DimMismatch"
        assert err["message"].startswith(
            f"constraints in {cons}: dim must be 3 or 4, got ")
        assert len(err["message"].encode()) < 200
        if len(dim) < 40:
            assert err["message"].endswith(f"got {json.loads(dim)}")
        assert not out.exists()

    def test_solve_gets_the_axis_as_written(self, tmp_path, monkeypatch):
        # the --axis check normalizes a copy: normalizing twice moves the
        # last bit of some axes, which would change direction.json
        seen = []
        solve = toric.solve_direction_equivariant
        monkeypatch.setattr(toric, "solve_direction_equivariant",
                            lambda rows, axis, *a: seen.append(axis)
                            or solve(rows, axis, *a))
        (tmp_path / "cons.json").write_text(
            '{"rows": [{"omega": [1, 2, 3], "rhs": 1}]}')
        assert run("toric", "solve", "--constraints", tmp_path / "cons.json",
                   "--axis", "0.1,0.2,3", "--order", "4",
                   "--out", tmp_path / "out") == 0
        assert seen == [[0.1, 0.2, 3.0]]

    def test_solve_dim_4(self, tmp_path):
        # a "dim" of 4.0 once solved as 4; test_solve_dim_must_be_3_or_4
        # now refuses it
        (tmp_path / "cons.json").write_text(
            '{"rows": [{"omega": [0, 0, 1, -1]}], "dim": 4}')
        out = tmp_path / "out"
        assert run("toric", "solve", "--constraints", tmp_path / "cons.json",
                   "--axis", "0,0,1", "--order", "4", "--out", out) == 0
        np.testing.assert_allclose(
            json.loads((out / "direction.json").read_text())["v"],
            np.array([0, 0, 1, 1]) / np.sqrt(2), atol=1e-15)


class TestNoiseStudy:
    def test_csv_format_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("noise-study", "--input", CLOUD, "--spec1", SPEC_XY,
                       "--spec2", SPEC_YZ, "--sigmas", "0.0,0.01,0.05",
                       "--trials", "20", "--seed", "11", "--out", out) == 0
        text = (a / "noise.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# twoview ")
        assert "seed=11" in lines[0]
        assert lines[1] == "sigma,rmse_mean,rmse_std,predicted_bound,slope"
        rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
        assert rows[0][1] == 0.0  # zero noise, zero error
        assert rows[2][1] > rows[1][1] > 0.0
        # sigma only scales the study: one slope for every sigma > 0
        assert len({ln.split(",")[4] for ln in lines[3:]}) == 1
        assert (a / "noise.csv").read_bytes() == (b / "noise.csv").read_bytes()

    def test_tol_is_the_transversality_margin(self, tmp_path, capsys):
        # |n1 x n2| = 1 for XY/YZ, so a margin of 2 rejects the pair
        code = run("noise-study", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", SPEC_YZ, "--sigmas", "0.01", "--trials", "2",
                   "--tol", "2", "--out", tmp_path / "out")
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NonTransverse"

    @pytest.mark.parametrize("sigmas, message", [
        ("0.01,nan", "non-finite sigma"),
        ("0.01,-1", "sigma must be >= 0, got -1.0"),
        ("inf", "non-finite sigma")])
    def test_bad_sigma_refused_before_any_trial(self, sigmas, message,
                                                tmp_path, capsys,
                                                monkeypatch):
        # nan was once refused by the study itself, after the 0.01 trials
        trials = []
        monkeypatch.setattr(recon, "noise_study",
                            lambda *args, **kwargs: trials.append(args))
        out = tmp_path / "out"
        assert run("noise-study", "--input", CLOUD, *_SPECS, "--sigmas", sigmas,
                   "--out", out) == 2
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "DimMismatch"
        assert err["message"] == "value in --sigmas: " + message
        assert trials == []
        assert not out.exists()

    def test_empty_cloud_exits_2(self, tmp_path, capsys):
        # the mean over no points once ended in a floating-point error
        # (exit 4)
        (tmp_path / "empty.json").write_text('{"points": []}')
        out = tmp_path / "out"
        assert run("noise-study", "--input", tmp_path / "empty.json",
                   *_SPECS, "--sigmas", "0.01", "--out", out) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DimMismatch"
        assert list(out.iterdir()) == []


class TestTopLevel:
    def test_run_json_only_on_success(self, tmp_path):
        ok, bad = tmp_path / "ok", tmp_path / "bad"
        assert run("project", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", SPEC_YZ, "--out", ok) == 0
        assert run("project", "--input", CLOUD, "--spec1", SPEC_XY,
                   "--spec2", SPEC_XY, "--check-transversal",
                   "--out", bad) == 3
        assert (ok / "run.json").exists()
        assert bad.is_dir() and not (bad / "run.json").exists()

    def test_debug_logging_changes_no_output(self, tmp_path, monkeypatch):
        # RECON_LOG sets the root logger's level; the outputs stay the same
        levels = []
        monkeypatch.setattr("logging.basicConfig",
                            lambda level: levels.append(level))
        outs = [tmp_path / "plain", tmp_path / "debug"]
        for out in outs:
            if out.name == "debug":
                monkeypatch.setenv("RECON_LOG", "debug")
            assert run("project", "--input", CLOUD, *_SPECS, "--out", out) == 0
        assert levels == [10]  # logging.DEBUG
        plain, debug = ({f.name: f.read_bytes() for f in out.iterdir()}
                        for out in outs)
        runs = [json.loads(files.pop("run.json")) for files in (plain, debug)]
        assert plain == debug and plain.keys() == {"image1.json", "image2.json"}
        for cfg, out in zip(runs, outs):
            assert cfg["config"].pop("out") == str(out)
        assert runs[0] == runs[1]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("twoview ")


class TestToricSolveNonFinite:
    error = TestBoundaryValidation.error

    @pytest.mark.parametrize("row", ['{"omega": [NaN, 0, 0]}',
                                     '{"omega": [Infinity, 0, 0]}',
                                     '{"omega": [1, 0, 0], "rhs": NaN}'])
    def test_rejected(self, row, tmp_path, capsys):
        # NaN omega was once dropped (exit 0), Infinity warned and exited 0,
        # and a NaN rhs ended in AmbiguousDirection (exit 3)
        (tmp_path / "cons.json").write_text(
            '{"rows": [%s, {"omega": [0, 1, 0]}], "dim": 3}' % row)
        out = tmp_path / "out"
        assert run("toric", "solve", "--constraints", tmp_path / "cons.json",
                   "--axis", "0,0,1", "--order", "4", "--out", out) == 2
        err = self.error(capsys)
        assert err["error"] == "DimMismatch"
        assert not out.exists()


def leaf_parsers(parser=None, path=()):
    """{subcommand words: parser} for every leaf subcommand."""
    parser = parser or build_parser()
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: parser}
    return {leaf: sp for name, child in subs[0].choices.items()
            for leaf, sp in leaf_parsers(child, path + (name,)).items()}


def options(parser):
    """The optional arguments a parser accepts, --help excluded."""
    return [a for a in parser._actions
            if a.option_strings and a.dest != "help"]


class TestParser:
    """Each subcommand accepts only the options its command reads."""

    def test_every_option_is_read_by_its_command(self):
        leaves = leaf_parsers()
        assert len(leaves) == 12
        assert sum(len(options(sp)) for sp in leaves.values()) == 71
        for leaf, sp in leaves.items():
            func = sp.get_default("func")
            source = inspect.getsource(func)
            for action in options(sp):
                # main reads --out and hands the command the directory
                if action.dest != "out":
                    assert f"args.{action.dest}" in source, (leaf, action.dest)

    def test_run_json_lists_the_accepted_options(self, tmp_path):
        out = tmp_path / "out"
        assert run("diagnose", "algebra", "--table",
                   fixture_path("z4_table.csv"), "--out", out) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config == {"command": "diagnose", "check": "algebra",
                          "out": str(out),
                          "table": str(fixture_path("z4_table.csv")),
                          "strict": "False"}

    def test_run_json_echoes_the_lists_as_given(self, tmp_path):
        # the commands receive the parsed lists; run.json keeps the text
        out = tmp_path / "voxels"
        assert run(*voxel_pair(tmp_path, "tilt", 2), "--out", out) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["grid_dims"] == "2,2,2"
        ang = 2 * np.pi * np.arange(6) / 6
        pts = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)])
        ser.save_cloud(PointCloud(pts, np.ones(6)), tmp_path / "hex.json")
        out = tmp_path / "toric"
        assert run("toric", "detect", "--input", tmp_path / "hex.json",
                   "--out", out) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["orders"] == "2,3,4,5,6"
        assert json.loads((out / "toric.json").read_text())["order"] == 6

    def test_only_the_table_reads_an_option_value(self):
        # no command parses or checks an option; `_check_options` does
        for func, _, _ in cli._LEAVES.values():
            source = inspect.getsource(func)
            assert "read_list" not in source and "check_option" not in source


# a sample argv of every leaf command, each option it accepts given
_LEAF_ARGV = {
    ("project",): ("--input", "c.json", "--spec1", "a", "--spec2", "b",
                   "--mode", "voxels", "--image-dims", "4", "--format",
                   "pgm", "--check-transversal", "--tol", "1e-3"),
    ("reconstruct", "points"): ("--image1", "i", "--image2", "j",
                                "--spec1", "a", "--spec2", "b"),
    ("reconstruct", "voxels"): ("--sino1", "s", "--sino2", "t", "--spec1",
                                "a", "--spec2", "b", "--grid-dims", "1,2,3",
                                "--spacing", "0.5", "--matrix-market"),
    ("certify",): ("--input", "c", "--spec1", "a", "--spec2", "b",
                   "--field-x", "x", "--field-y", "y", "--connection", "g",
                   "--tol-int", "1e-4"),
    ("diagnose", "algebra"): ("--table", "t", "--strict"),
    ("diagnose", "frobenius"): ("--field-x", "x", "--field-y", "y",
                                "--profile"),
    ("diagnose", "hantjies"): ("--field-x", "x", "--field-y", "y",
                               "--connection", "g"),
    ("diagnose", "curvature"): ("--field-x", "x", "--field-y", "y",
                                "--field-z", "z", "--connection", "g"),
    ("diagnose", "jacobiator"): ("--field-x", "x", "--field-y", "y",
                                 "--field-z", "z", "--twist", "h"),
    ("toric", "detect"): ("--input", "c", "--orders", "2,3"),
    ("toric", "solve"): ("--constraints", "k", "--axis", "0,0,1",
                         "--order", "4"),
    ("noise-study",): ("--input", "c", "--spec1", "a", "--spec2", "b",
                       "--sigmas", "0.1", "--trials", "3"),
}


def help_text(parser, argv) -> str:
    """What `parser` prints for argv ending in --help."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


class TestNamedParser:
    """`build_parser(argv)` adds only the command branch argv names, and
    parses, helps and refuses as the full parser does."""

    def test_every_leaf_has_a_sample(self):
        assert set(_LEAF_ARGV) == set(leaf_parsers())

    @pytest.mark.parametrize("leaf", _LEAF_ARGV, ids=" ".join)
    def test_parses_as_the_full_parser(self, leaf):
        argv = [*leaf, *_LEAF_ARGV[leaf], "--out", "o"]
        named = build_parser(argv)
        assert list(leaf_parsers(named)) == [leaf]
        # the items in order: run.json lists them so
        assert (list(vars(named.parse_args(argv)).items())
                == list(vars(build_parser().parse_args(argv)).items()))

    @pytest.mark.parametrize("words", [
        (), ("reconstruct",), ("diagnose",), ("toric",), *_LEAF_ARGV],
        ids=lambda words: " ".join(words) or "top")
    def test_help_is_the_full_parsers(self, words):
        argv = [*words, "--help"]
        text = help_text(build_parser(argv), argv)
        assert text.startswith(f"usage: {' '.join(('twoview', *words))} ")
        assert text == help_text(build_parser(), argv)

    def test_version_builds_no_branch(self, capsys):
        parser = build_parser(["--version"])
        assert leaf_parsers(parser) == {}
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == cli.TOOL + "\n"

    @pytest.mark.parametrize("argv, message", [
        (("nope", "--out", "o"), "twoview: argument command: invalid "
         "choice: 'nope' (choose from 'project', 'reconstruct', 'certify', "
         "'diagnose', 'toric', 'noise-study')"),
        (("diagnose", "nope", "--out", "o"), "twoview diagnose: argument "
         "check: invalid choice: 'nope' (choose from 'algebra', "
         "'frobenius', 'hantjies', 'curvature', 'jacobiator')"),
        ((), "twoview: the following arguments are required: command"),
        (("--bogus",), "twoview: the following arguments are required: "
         "command"),
        (("project", "--out", "o"), "twoview project: the following "
         "arguments are required: --input, --spec1, --spec2"),
    ], ids=["unknown-command", "unknown-check", "empty", "unknown-option",
            "missing-option"])
    def test_errors_are_the_full_parsers(self, argv, message, capsys,
                                         tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 2
        assert capsys.readouterr().err == json.dumps(
            {"error": "InputError", "message": message}) + "\n"
        with pytest.raises(InputError) as exc:
            build_parser().parse_args(argv)
        assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []


class TestOneErrorBoundary:
    """Parse errors and an unusable --out exit 2 with one JSON line, no
    usage text and no run.json."""

    def run_captured(self, *argv):
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            code = run(*argv)
        assert stdout.getvalue() == ""
        return code, err.getvalue()

    def failure(self, *argv):
        code, err = self.run_captured(*argv)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1, err
        return json.loads(lines[0])

    ALGEBRA = ("diagnose", "algebra", "--table", fixture_path("z4_table.csv"))

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_is_a_file(self, under, tmp_path):
        # a file once ended in a raw FileExistsError traceback, exit 1
        (tmp_path / "f").write_text("x")
        err = self.failure(*self.ALGEBRA, "--out", tmp_path / "f" / under)
        assert err["error"] in ("FileExistsError", "NotADirectoryError")
        assert (tmp_path / "f").read_text() == "x"
        assert list(tmp_path.rglob("run.json")) == []

    def test_empty_out(self, tmp_path, monkeypatch):
        # Path("") would be the working directory
        monkeypatch.chdir(tmp_path)
        err = self.failure(*self.ALGEBRA, "--out", "")
        assert err["error"] == "InputError"
        assert "--out" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_option(self, tmp_path):
        err = self.failure("project", "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                           "--out", tmp_path / "out")
        assert err["error"] == "InputError"
        assert "--input" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_trials_not_an_int(self, tmp_path):
        err = self.failure("noise-study", "--input", CLOUD, "--spec1", SPEC_XY,
                           "--spec2", SPEC_YZ, "--sigmas", "0.1",
                           "--trials", "abc", "--out", tmp_path / "out")
        assert "--trials" in err["message"]

    @pytest.mark.parametrize("argv", [
        (*ALGEBRA, "--field-x", "x"),
        (*ALGEBRA, "--seed", "1"),
        ("diagnose", "frobenius", "--field-x", fixture_path("field_coord_x.json"),
         "--field-y", fixture_path("field_coord_y.json"), "--tol", "1"),
        ("toric", "solve", "--constraints", "c.json", "--axis", "0,0,1",
         "--order", "4", "--tol", "1"),
        ("project", "--input", CLOUD, "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
         "--seed", "3"),
    ])
    def test_dead_option_rejected(self, argv, tmp_path):
        err = self.failure(*argv, "--out", tmp_path / "out")
        assert "unrecognized arguments" in err["message"]

    @pytest.mark.parametrize("argv", [(), ("diagnose",), ("diagnose", "nope"),
                                      ("project", "--mode", "lines")])
    def test_no_usage_text(self, argv):
        assert self.failure(*argv)["error"] == "InputError"

    def test_overflowing_sigma(self, tmp_path):
        # once RuntimeWarning lines on stderr before the JSON line.  The
        # slope of XY/YZ is near 1.58, so 1e308 is a finite study and
        # 1.7e308 overflows
        out = tmp_path / "out"
        code, err = self.run_captured("noise-study", "--input", CLOUD,
                                      *_SPECS, "--sigmas", "1e308",
                                      "--trials", "2", "--out", out)
        assert (code, err) == (0, "")
        lines = (out / "noise.csv").read_text().splitlines()
        [row] = [list(map(float, ln.split(","))) for ln in lines[2:]]
        assert all(map(math.isfinite, row))
        assert 1.5e308 < row[1] < 1.7e308
        err = self.failure("noise-study", "--input", CLOUD, *_SPECS,
                           "--sigmas", "1.7e308", "--trials", "2",
                           "--out", tmp_path / "over")
        assert err["error"] == "DimMismatch"
        assert "overflows" in err["message"]

    def test_negative_seed(self, tmp_path):
        # once a raw ValueError from numpy's seed sequence
        err = self.failure("noise-study", "--input", CLOUD, "--spec1", SPEC_XY,
                           "--spec2", SPEC_YZ, "--sigmas", "0.1",
                           "--seed", "-1", "--out", tmp_path / "out")
        assert err["error"] == "DimMismatch"


# every option that names an input file, and each leaf command with each
# of them it accepts
_FILES = ("--input", "--spec1", "--spec2", "--image1", "--image2", "--sino1",
          "--sino2", "--field-x", "--field-y", "--field-z", "--connection",
          "--table", "--twist", "--constraints")
_FILE_OPTIONS = [(leaf, action.option_strings[0])
                 for leaf, sp in leaf_parsers().items()
                 for action in options(sp) if action.option_strings[0] in _FILES]


class TestFilesBeforeOut:
    """Every input file is read before --out is made: one that cannot be
    read exits 2 with one JSON line naming it and leaves no --out."""

    def test_the_table_names_a_loader_for_each_file(self):
        loaders = {opt: check for opt, check in cli._OPTION_CHECKS.items()
                   if isinstance(check, str)}
        assert set(loaders) == set(_FILES)
        assert all(callable(getattr(ser, name)) for name in loaders.values())
        assert {leaf for leaf, _ in _FILE_OPTIONS} == set(leaf_parsers())
        assert len(_FILE_OPTIONS) == 36

    @pytest.mark.parametrize("leaf, option", _FILE_OPTIONS, ids=lambda v:
                             v if isinstance(v, str) else " ".join(v))
    def test_missing_file(self, leaf, option, cli_inputs, tmp_path, capsys):
        # the commands once read their files after --out was made, so a
        # missing one left an empty directory behind
        good, missing = cli_inputs[0], tmp_path / "missing.json"
        argv = list(leaf)
        for action in options(leaf_parsers()[leaf]):
            opt = action.option_strings[0]
            if opt == option:
                argv += [opt, missing]
            elif action.required and opt != "--out":
                argv += [opt, good[opt][0]]
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "InputError",
                                    "message": f"no such file: {missing}"}
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("project", "--check-transversal", "--input", "MISSING"),
        ("reconstruct", "voxels", "--grid-dims", "3,3,3",
         "--sino1", "MISSING", "--sino2", "MISSING")],
        ids=["project", "voxels"])
    def test_files_are_read_before_the_geometric_checks(self, argv, tmp_path,
                                                        capsys):
        # on coaxial specs both once exited 3 (NonTransverse) before the
        # missing file was read
        missing, out = tmp_path / "missing", tmp_path / "out"
        argv = [missing if a == "MISSING" else a for a in argv]
        assert run(*argv, "--spec1", SPEC_XY, "--spec2", SPEC_XY,
                   "--out", out) == 2
        assert json.loads(capsys.readouterr().err)["message"] == (
            f"no such file: {missing}")
        assert not out.exists()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """One valid value of every option, and its files."""
    root = tmp_path_factory.mktemp("cli_inputs")
    cloud = ser.load_cloud(CLOUD)
    for i, spec in enumerate((coordinate_spec(2), coordinate_spec(0)), 1):
        ser.save_image(project_points(cloud, spec), root / f"image{i}.json")
    ser.save_voxels(VoxelGrid((3, 3, 3), 1.0, (-1, -1, -1),
                              np.arange(27.0).reshape(3, 3, 3)),
                    root / "grid.json")
    (root / "sino.csv").write_text("1.0,2.0,3.0\n" * 3)
    (root / "twist.json").write_text(json.dumps(np.zeros((3, 3, 3)).tolist()))
    (root / "cons.json").write_text(
        '{"rows": [{"omega": [1, 0, 0]}, {"omega": [0, 1, 0]}], "dim": 3}')
    (root / "bad.json").write_text("{not json")
    good = {
        "--input": [CLOUD, root / "grid.json"], "--spec1": [SPEC_XY],
        "--spec2": [SPEC_YZ], "--mode": ["points", "voxels"],
        "--image-dims": ["3"], "--format": ["csv", "pgm"],
        "--tol": ["1e-9", "2"], "--image1": [root / "image1.json"],
        "--image2": [root / "image2.json"], "--sino1": [root / "sino.csv"],
        "--sino2": [root / "sino.csv"], "--grid-dims": ["3,3,3"],
        "--spacing": ["1.0"],
        "--field-x": [fixture_path("field_coord_x.json")],
        "--field-y": [fixture_path("field_contact_y.json")],
        "--field-z": [fixture_path("field_contact_x.json")],
        "--connection": [fixture_path("conn_flat.json")],
        "--tol-int": ["1e-6"], "--table": [fixture_path("z4_table.csv")],
        "--twist": [root / "twist.json"], "--orders": ["2,3"],
        "--constraints": [root / "cons.json"], "--axis": ["0,0,1"],
        "--order": ["4"], "--sigmas": ["0,0.01"], "--trials": ["3"],
        "--seed": ["5"],
    }
    junk = ["", "nan", "inf", "-1", "0", "abc", "1,2", "100000000000000",
            root / "bad.json", root / "missing.json", root,
            *(v for vs in good.values() for v in vs)]
    return good, [str(v) for v in junk]


@st.composite
def cli_argv(draw, good, junk):
    """A leaf subcommand with each of its options absent, valid or junk,
    sometimes one option it does not accept, in any order."""
    leaf, sp = draw(st.sampled_from(sorted(leaf_parsers().items())))
    pairs = []
    for action in options(sp):
        opt = action.option_strings[0]
        if opt == "--out":
            continue
        how = draw(st.sampled_from(["good", "good", "good", "omit", "junk"]))
        if how == "omit":
            continue
        value = [] if action.nargs == 0 else \
            [str(draw(st.sampled_from(good[opt])))]
        if how == "junk":
            value = [draw(st.sampled_from(junk))]
        pairs.append([opt, *value])
    if draw(st.integers(0, 4)) == 0:
        pairs.append([draw(st.sampled_from(sorted(good) + ["--bogus"])),
                      draw(st.sampled_from(junk))])
    pairs = draw(st.permutations(pairs))
    return [*leaf, *(a for pair in pairs for a in pair)]


def check_outcome(argv, tmp) -> dict | None:
    """Run argv in-process and check its one boundary contract: exit 0, 2,
    3 or 4 with no exception escaping; a failure writes exactly one JSON
    stderr line, with `error` and `message`, and no run.json under `tmp`;
    a success no stderr and one run.json.  Returns the failure's JSON."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(*argv)
    assert code in (0, 2, 3, 4), argv
    written = list(Path(tmp).rglob("run.json"))
    if code == 0:
        assert err.getvalue() == "" and len(written) == 1, argv
        return None
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, (argv, err.getvalue())
    failure = json.loads(lines[0])
    assert set(failure) == {"error", "message"}
    assert written == [], argv
    return failure


class TestBoundaryProperties:
    """Any argv built from the real option names and junk values exits 0,
    2, 3 or 4; a failure writes exactly one JSON stderr line and no
    run.json, a success no stderr and a run.json."""

    def test_exit_codes_and_error_lines(self, cli_inputs):
        # @given sits on an inner function so that a failure is reported
        # as one: on a failing @given test item, hypothesis's pytest plugin
        # imports libcst to suggest a patch, and libcst's import-time
        # DeprecationWarning, an error under this suite's filterwarnings,
        # would abort the whole session
        good, junk = cli_inputs

        @given(data=st.data())
        @settings(max_examples=80, deadline=None, derandomize=True,
                  database=None)
        def check(data):
            argv = data.draw(cli_argv(good, junk))
            with tempfile.TemporaryDirectory() as tmp:
                (Path(tmp) / "file").write_text("x")
                out = data.draw(st.sampled_from(
                    ["out", "file", "file/sub", None]))
                if out is not None:
                    argv += ["--out", str(Path(tmp) / out)]
                check_outcome(argv, tmp)

        check()


# byte strings a fuzzed file splices in: numbers no float64 holds, JSON's
# non-finite spellings, structure, separators and non-UTF-8 bytes
_FUZZ_TOKENS = [b"nan", b"inf", b"-inf", b"1e999", b"-0", b"9" * 40,
                b"1e-320", b"Infinity", b"NaN", b"null", b"true", b'""',
                b"[]", b"{}", b"[[1]]", b",", b"\n", b"\r\n", b'"',
                b"\xc2\xb7", b"\xff", b"0x1", b"1_0"]
# numbers at the edges of what a loader converts: past float64 and int64,
# non-finite, subnormal; listed twice among the JSON leaves to weight them
_EDGE_NUMBERS = st.sampled_from([10 ** 400, -10 ** 30, 2 ** 63, 1e308,
                                 math.inf, -math.inf, math.nan, 5e-324, 0, -1])
_JSON_LEAVES = st.one_of(_EDGE_NUMBERS, _EDGE_NUMBERS, st.none(),
                         st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=4))


@st.composite
def spliced(draw, valid: bytes):
    """`valid` with up to four short spans replaced by junk, or cut short,
    or junk bytes alone."""
    how = draw(st.sampled_from(["splice", "splice", "cut", "junk"]))
    if how == "junk":
        return draw(st.binary(max_size=64))
    if how == "cut":
        return valid[:draw(st.integers(0, len(valid)))]
    b = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(b)))
        j = draw(st.integers(i, min(len(b), i + 12)))
        b[i:j] = draw(st.one_of(st.sampled_from(_FUZZ_TOKENS),
                                st.binary(max_size=6)))
    return bytes(b)


@st.composite
def recelled(draw, valid: bytes):
    """The CSV file `valid` with up to three cells replaced by junk tokens or
    by the text of an edge number."""
    parts = re.split(rb"([,\r\n]+)", valid)  # cells at the even indices
    for _ in range(draw(st.integers(1, 3))):
        i = 2 * draw(st.integers(0, len(parts) // 2))
        parts[i] = draw(st.one_of(
            st.sampled_from(_FUZZ_TOKENS),
            _EDGE_NUMBERS.map(lambda x: repr(x).encode())))
    return b"".join(parts)


def _json_paths(doc, path=()):
    """The path of every value in a parsed JSON document, its root first."""
    yield path
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, (*path, key))


@st.composite
def regrafted(draw, valid: bytes):
    """The JSON document `valid` with one of its values replaced by any JSON
    value built from its own keys and junk leaves."""
    doc = json.loads(valid)
    keys = sorted({p[-1] for p in _json_paths(doc)
                   if p and isinstance(p[-1], str)}) + ["x"]
    new = draw(st.one_of(_EDGE_NUMBERS, st.recursive(
        _JSON_LEAVES, lambda kids: st.lists(kids, max_size=4)
        | st.dictionaries(st.sampled_from(keys), kids, max_size=4),
        max_leaves=12)))
    path = draw(st.sampled_from(list(_json_paths(doc))))
    if not path:
        return json.dumps(new).encode()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return json.dumps(doc).encode()


def fuzzed(valid: bytes, is_json: bool):
    return st.one_of(spliced(valid),
                     regrafted(valid) if is_json else recelled(valid))


# each loaded input: the kind of file, the valid file the fuzzer starts from
# and the op that reads it; FILE stands for the fuzzed copy, and VALID[opt]
# for the cli_inputs fixture's last valid value of option opt
FILE = object()
VALID = {opt: ("cli_inputs", opt) for opt in (
    "--image1", "--image2", "--input", "--sino1", "--sino2", "--constraints",
    "--twist")}
FUZZED_INPUTS = {
    "points JSON": ("json", CLOUD, ("project", "--input", FILE, *_SPECS)),
    "image JSON": ("json", VALID["--image1"],
                   ("reconstruct", "points", "--image1", FILE,
                    "--image2", VALID["--image2"], *_SPECS)),
    "spec JSON": ("json", SPEC_XY, ("project", "--input", CLOUD,
                                    "--spec1", FILE, "--spec2", SPEC_YZ)),
    "voxel grid": ("grid", VALID["--input"],
                   ("project", "--mode", "voxels", "--input", FILE, *_SPECS)),
    "vector field": ("grid", fixture_path("field_contact_x.json"),
                     ("diagnose", "frobenius", "--field-x", FILE,
                      "--field-y", fixture_path("field_contact_y.json"))),
    "connection": ("grid", fixture_path("conn_flat.json"),
                   ("diagnose", "hantjies", *_FIELDS, "--connection", FILE)),
    "sinogram CSV": ("csv", VALID["--sino1"],
                     ("reconstruct", "voxels", "--sino1", FILE,
                      "--sino2", VALID["--sino2"], "--grid-dims", "3,3,3",
                      *_SPECS)),
    "table CSV": ("csv", fixture_path("z4_table.csv"),
                  ("diagnose", "algebra", "--table", FILE)),
    "constraints JSON": ("json", VALID["--constraints"],
                         ("toric", "solve", "--constraints", FILE,
                          "--axis", "0,0,1", "--order", "4")),
    "twist JSON": ("json", VALID["--twist"],
                   ("diagnose", "jacobiator", *_FIELDS, *_FIELD_Z,
                    "--twist", FILE)),
}


def fuzz_case(name, cli_inputs):
    """FUZZED_INPUTS[name] with the cli_inputs fixture's files in place of
    its VALID entries: the kind, the valid file, and the argv that reads
    the file at `path` and writes under `out`."""
    kind, valid, template = FUZZED_INPUTS[name]
    good = cli_inputs[0]

    def resolve(arg):
        return str(good[arg[1]][-1] if isinstance(arg, tuple) else arg)

    def argv(path, out):
        return [str(path) if a is FILE else resolve(a)
                for a in template] + ["--out", str(out)]

    return kind, Path(resolve(valid)), argv


class TestFuzzedFiles:
    """Any bytes in any loaded input file: the op exits 0, 2, 3 or 4 and
    no exception escapes; a failure writes exactly one JSON stderr line and
    no run.json.  A grid is fuzzed in its JSON header, its CSV or both."""

    @pytest.mark.parametrize("name", FUZZED_INPUTS)
    def test_any_bytes(self, name, cli_inputs):
        kind, valid, argv = fuzz_case(name, cli_inputs)
        suffixes = {"json": [".json"], "csv": [".csv"],
                    "grid": [".json", ".csv"]}[kind]
        parts = {suffix: fuzzed(valid.with_suffix(suffix).read_bytes(),
                                suffix == ".json")
                 for suffix in suffixes}

        # @given on an inner function, as in TestBoundaryProperties
        @given(data=st.data())
        @settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)
        def check(data):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "in" / ("fuzzed" + suffixes[0])
                path.parent.mkdir()
                fuzz = data.draw(st.sampled_from(
                    [suffixes[:1], suffixes[1:], suffixes]
                    if kind == "grid" else [suffixes]))
                for suffix in suffixes:
                    target = path.with_suffix(suffix)
                    if suffix in fuzz:
                        target.write_bytes(data.draw(parts[suffix]))
                    else:
                        shutil.copy(valid.with_suffix(suffix), target)
                check_outcome(argv(path, Path(tmp) / "out"), tmp)

        check()

    # files the fuzzer found escaping, each once an uncaught OverflowError or
    # a numpy RuntimeWarning line on stderr, and the error each exits with
    # (None: exit 0)
    BIG = "1" + "0" * 400
    SPEC = '{"u": [%s, 0, 0], "w": [0, 1, 0], "n": [0, 0, 1]}'
    ROWS = '"rows": [{"omega": [%s, 0, 0]}, {"omega": [0, 1, 0]}]'
    TWIST = [[[0.0] * 3] * 3] * 3
    ESCAPED = {
        "spec past float64": ("spec JSON", ".json", SPEC % BIG,
                              "DimMismatch"),
        "spec of huge norm": ("spec JSON", ".json", SPEC % "1e308",
                              "InvalidFrame"),
        "table entry past int64": ("table CSV", ".csv",
                                   "0,1\n1,99999999999999999999999\n",
                                   "DimMismatch"),
        "infinite constraints dim": ("constraints JSON", ".json",
                                     "{%s, \"dim\": Infinity}" % (ROWS % 1),
                                     "DimMismatch"),
        # the row norms once overflowed here (exit 4); each row is now
        # judged after scaling it by its own power of two, both rows vanish
        # on the axis, and it exits 0 with v = e3
        "constraint of huge norm": ("constraints JSON", ".json",
                                    "{%s}" % (ROWS % "1e308"), None),
        "twist past float64": ("twist JSON", ".json",
                               json.dumps(TWIST).replace("0.0", BIG, 1),
                               "DimMismatch"),
        "huge symmetric twist": ("twist JSON", ".json",
                                 json.dumps(TWIST).replace("0.0", "1e308", 5),
                                 "DimMismatch"),
        # CGLS once overflowed here (exit 4); it now solves for the values
        # scaled by a power of two into [0.5, 1) and exits 0
        "huge sinogram": ("sinogram CSV", ".csv",
                          "1e308,2.0,3.0\n1.0,2.0,3.0\n1.0,2.0,3.0\n",
                          None),
        "huge voxel spacing": ("voxel grid", ".json", json.dumps(
            {"dims": [3, 3, 3], "kind": "voxel_grid",
             "origin": [-1.0, -1.0, -1.0], "spacing": 1e308}),
            "NumericalError"),
    }

    # where each JSON input file holds a number
    NUMBER_AT = {
        "points JSON": ("points", 0, "p", 0),
        "image JSON": ("points", 0, "p", 0),
        "spec JSON": ("u", 0),
        "voxel grid": ("origin", 0),
        "vector field": ("origin", 0),
        "connection": ("origin", 0),
        "twist JSON": (0, 0, 1),
        "constraints JSON": ("rows", 0, "omega", 0),
    }

    @staticmethod
    def fuzzed_path(kind, valid, tmp_path) -> Path:
        """The path of a copy of `valid` to fuzz, a grid's CSV copied."""
        path = tmp_path / "in" / ("fuzzed" + valid.suffix)
        path.parent.mkdir()
        if kind == "grid":
            shutil.copy(valid.with_suffix(".csv"), path.with_suffix(".csv"))
        return path

    @pytest.mark.parametrize("name", NUMBER_AT)
    def test_past_float64_is_refused_by_the_record(self, name, cli_inputs,
                                                    tmp_path):
        # the record alone refuses an integer no float64 holds, as its
        # DimMismatch, and the loader names the file
        kind, valid, argv = fuzz_case(name, cli_inputs)
        path = self.fuzzed_path(kind, valid, tmp_path)
        doc = parent = json.loads(valid.read_text())
        *keys, last = self.NUMBER_AT[name]
        for key in keys:
            parent = parent[key]
        parent[last] = 10 ** 400
        path.write_text(json.dumps(doc))
        failure = check_outcome(argv(path, tmp_path / "out"), tmp_path)
        assert failure["error"] == "DimMismatch"
        assert str(path) in failure["message"]
        if name == "twist JSON":
            assert "--twist" in failure["message"]

    @pytest.mark.parametrize("name", ["points JSON", "image JSON"])
    def test_negative_weight_names_its_file(self, name, cli_inputs,
                                            tmp_path):
        # an image once kept a negative weight, which `reconstruct points`
        # refused only in the cloud it built, naming no file
        kind, valid, argv = fuzz_case(name, cli_inputs)
        path = self.fuzzed_path(kind, valid, tmp_path)
        doc = json.loads(valid.read_text())
        doc["points"][0]["w"] = -1.0
        path.write_text(json.dumps(doc))
        failure = check_outcome(argv(path, tmp_path / "out"), tmp_path)
        assert failure["error"] == "DimMismatch"
        assert failure["message"].endswith("weights must be >= 0, got -1.0")
        assert str(path) in failure["message"]

    def test_nan_field_sample_names_its_file(self, cli_inputs, tmp_path):
        kind, valid, argv = fuzz_case("vector field", cli_inputs)
        path = self.fuzzed_path(kind, valid, tmp_path)
        shutil.copy(valid, path)
        csv = path.with_suffix(".csv")
        text = csv.read_text()
        csv.write_text("nan" + text[text.index(","):])  # the first sample
        failure = check_outcome(argv(path, tmp_path / "out"), tmp_path)
        assert failure["error"] == "HeaderMismatch"
        assert str(path) in failure["message"]

    @pytest.mark.parametrize("case", ESCAPED)
    def test_escaped_once(self, case, cli_inputs, tmp_path):
        name, suffix, text, error = self.ESCAPED[case]
        kind, valid, argv = fuzz_case(name, cli_inputs)
        path = self.fuzzed_path(kind, valid, tmp_path)
        path.with_suffix(suffix).write_text(text)
        failure = check_outcome(argv(path, tmp_path / "out"), tmp_path)
        assert (failure or {}).get("error") == error, failure


# Runs `python -m twoview.cli ARGS` in-process through runpy and, at exit,
# prints the sorted names of the sys.modules entries m (module v) that
# {select} picks as the last stdout line.
_RUN_CLI = """
import atexit, json, runpy, sys, types
atexit.register(lambda: print(json.dumps(sorted(
    m for m, v in sys.modules.items() if {select}))))
sys.argv = ["twoview"] + sys.argv[1:]
runpy.run_module("twoview.cli", run_name="__main__", alter_sys=True)
"""
_LIST_SCIPY = _RUN_CLI.format(select='m.split(".")[0] == "scipy"')
_LIST_NUMPY = _RUN_CLI.format(select='m.split(".")[0] == "numpy"')
# a layer that has not executed is still a lazy module, whose type is a
# subclass of ModuleType
_EXECUTED = 'm.startswith("twoview.") and type(v) is types.ModuleType'
_LIST_LAYERS = _RUN_CLI.format(select=_EXECUTED)
_LIST_STDLIB = _RUN_CLI.format(select='m in ("csv", "dataclasses")')


def fresh_run(code, *argv, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter running `code` on this checkout's twoview."""
    src = str(Path(twoview.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=60)


def fresh_modules(code, *argv, cwd=None) -> set:
    """The names a fresh interpreter running `code` prints last."""
    proc = fresh_run(code, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules(*argv, code=_LIST_SCIPY):
    """The scipy modules a fresh interpreter loads to run `code`."""
    return fresh_modules(code, *argv)


@pytest.fixture(scope="module")
def layer_inputs(tmp_path_factory):
    """A directory holding the op inputs the layer table below names."""
    root = tmp_path_factory.mktemp("layer_inputs")
    ser.save_voxels(VoxelGrid((3, 3, 3), 1.0, (0, 0, 0), np.ones((3, 3, 3))),
                    root / "grid.json")
    specs = ("--spec1", SPEC_XY, "--spec2", SPEC_YZ)
    assert run("project", "--input", CLOUD, *specs, "--out", root) == 0
    assert run("project", "--mode", "voxels", "--input", root / "grid.json",
               *specs, "--out", root) == 0
    ang = 2 * np.pi * np.arange(6) / 6
    hexagon = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)])
    ser.save_cloud(PointCloud(hexagon, np.ones(6)), root / "hex.json")
    (root / "cons.json").write_text(json.dumps(
        {"rows": [{"omega": [1, 0, 0]}, {"omega": [0, 1, 0]}], "dim": 3}))
    return root


_CONN = ("--connection", fixture_path("conn_flat.json"))
_IO = {"errors", "geometry", "serialization"}
_RECON = _IO | {"recon"}
_DIFFGEO = _IO | {"diffgeo"}
# each op, run in the layer_inputs directory, and the twoview modules it
# executes; `errors` is the one layer the CLI imports eagerly
LAYERS_EXECUTED = {
    "version": (("--version",), {"errors"}),
    "project points": (("project", "--input", CLOUD, *_SPECS), _IO),
    "project voxels": (("project", "--mode", "voxels",
                        "--input", "grid.json", *_SPECS), _IO),
    "reconstruct points": (("reconstruct", "points", "--image1",
                            "image1.json", "--image2", "image2.json",
                            *_SPECS), _RECON),
    "reconstruct voxels": (("reconstruct", "voxels", "--sino1", "sino1.csv",
                            "--sino2", "sino2.csv", "--grid-dims", "3,3,3",
                            *_SPECS), _RECON),
    "noise-study": (("noise-study", "--input", CLOUD, *_SPECS,
                     "--sigmas", "0.01", "--trials", "2"), _RECON),
    "diagnose frobenius": (("diagnose", "frobenius", *_FIELDS), _DIFFGEO),
    "diagnose hantjies": (("diagnose", "hantjies", *_FIELDS, *_CONN),
                          _DIFFGEO),
    "diagnose curvature": (("diagnose", "curvature", *_FIELDS, *_FIELD_Z,
                            *_CONN), _DIFFGEO),
    "diagnose algebra": (("diagnose", "algebra",
                          "--table", fixture_path("z4_table.csv")),
                         _IO | {"algebra"}),
    "diagnose jacobiator": (("diagnose", "jacobiator", *_FIELDS, *_FIELD_Z),
                            _DIFFGEO | {"algebra"}),
    "certify": (("certify", "--input", CLOUD, *_SPECS, *_FIELDS, *_CONN),
                _DIFFGEO | {"certify"}),
    "toric detect": (("toric", "detect", "--input", "hex.json",
                      "--orders", "2,3,4,6"), _IO | {"moments", "toric"}),
    "toric solve": (("toric", "solve", "--constraints", "cons.json",
                     "--axis", "0,0,1", "--order", "4"), _RECON | {"toric"}),
}
# the names `twoview/__init__.py` re-exported from its layers before they
# loaded lazily
REEXPORTS = {
    "geometry": ("BackprojectionRay", "Involution", "PointCloud",
                 "Projected2D", "ProjectionSpec", "Sinogram", "VoxelGrid",
                 "apply_involution", "backproject", "coordinate_spec",
                 "project_points", "project_voxels"),
    "moments": ("MomentValue", "SecondMoment3D", "centroid2d", "centroid3d",
                "moment_map", "second_moment"),
    "recon": ("ConstraintRow", "DirectionSolution", "NoiseReport",
              "RadonSystem", "build_radon_system", "noise_study",
              "reconstruct_cloud", "solve_direction", "solve_radon",
              "triangulate"),
    "certify": ("Certificate", "TrivializationCoords", "certificate",
                "check_transversality", "trivialization"),
}


class TestImportGraph:
    """Each op imports only the scipy it runs, which is none but for
    `toric detect` when no candidate rotation matches; `src/twoview` has
    no module-level scipy import.  Each op also executes only the twoview
    layers it calls, while every layer has a sys.modules entry.  A run
    that only parses its argv (`--version`, `--help`, a usage error)
    loads no numpy.  No op loads `dataclasses`, and only `diagnose
    algebra`, which reads a table, loads `csv`."""

    def test_import_cli_loads_no_numpy(self):
        code = ("import json, sys, twoview.cli; print(json.dumps("
                "[m for m in sys.modules if m.split('.')[0] == 'numpy']))")
        assert fresh_modules(code) == set()

    @pytest.mark.parametrize("argv, code, message", [
        (("--version",), 0, None),
        (("--help",), 0, None),
        (("project", "--spec1", SPEC_XY, "--spec2", SPEC_YZ, "--out", "out"),
         2, "the following arguments are required: --input"),
        (("nope", "--out", "out"), 2, "invalid choice: 'nope'"),
    ], ids=["version", "help", "missing-option", "unknown-subcommand"])
    def test_parse_only_runs_load_no_numpy(self, argv, code, message,
                                           tmp_path):
        proc = fresh_run(_LIST_NUMPY, *argv, cwd=tmp_path)
        *stdout, loaded = proc.stdout.splitlines()
        assert json.loads(loaded) == []
        assert proc.returncode == code, proc.stderr
        if message is None:
            assert proc.stderr == ""
            assert stdout[0] == (cli.TOOL if argv == ("--version",)
                                 else "usage: twoview [-h] [--version]")
        else:
            assert stdout == []
            [line] = proc.stderr.splitlines()
            err = json.loads(line)
            assert err["error"] == "InputError"
            assert message in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_import_twoview_executes_no_layer(self):
        code = ("import json, sys, types, twoview; print(json.dumps("
                "[('executed ' if type(v) is types.ModuleType else '') + m "
                "for m, v in sys.modules.items() if m.startswith('twoview.')"
                "]))")
        assert fresh_modules(code) == {
            f"twoview.{layer}" for layer in (
                "geometry", "moments", "recon", "diffgeo", "certify",
                "algebra", "toric", "serialization")}

    @pytest.mark.parametrize("op", LAYERS_EXECUTED)
    def test_op_executes_only_its_layers(self, op, layer_inputs):
        argv, layers = LAYERS_EXECUTED[op]
        executed = fresh_modules(_LIST_LAYERS, *argv, "--out",
                                 "out-" + op.replace(" ", "-"),
                                 cwd=layer_inputs)
        assert executed == {f"twoview.{layer}" for layer in layers}

    @pytest.mark.parametrize("op", LAYERS_EXECUTED)
    def test_op_loads_no_dataclasses_and_csv_only_for_a_table(
            self, op, layer_inputs):
        argv, _ = LAYERS_EXECUTED[op]
        loaded = fresh_modules(_LIST_STDLIB, *argv, "--out",
                               "std-" + op.replace(" ", "-"),
                               cwd=layer_inputs)
        assert loaded == ({"csv"} if op == "diagnose algebra" else set())

    def test_version_loads_no_json(self):
        # the listing script imports json itself, so this one prints a repr
        code = ("import atexit, runpy, sys; atexit.register(lambda: print("
                "[m for m in ('csv', 'dataclasses', 'json') "
                "if m in sys.modules])); sys.argv = ['twoview', '--version']; "
                "runpy.run_module('twoview.cli', run_name='__main__', "
                "alter_sys=True)")
        proc = fresh_run(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [cli.TOOL, "[]"]

    @pytest.mark.parametrize("layer", REEXPORTS)
    def test_reexports_are_their_home_objects(self, layer):
        home = getattr(twoview, layer)
        for name in REEXPORTS[layer]:
            assert getattr(twoview, name) is getattr(home, name), name
        assert set(REEXPORTS[layer]) <= set(dir(twoview))

    def test_import_cli_loads_no_scipy(self):
        code = ("import json, sys, twoview.cli; print(json.dumps("
                "[m for m in sys.modules if m.split('.')[0] == 'scipy']))")
        assert scipy_modules(code=code) == set()

    def test_version_loads_no_scipy(self):
        assert scipy_modules("--version") == set()

    def test_point_and_diagnostic_ops_load_no_scipy(self, tmp_path):
        proj = tmp_path / "proj"
        assert scipy_modules("project", "--input", CLOUD, "--spec1", SPEC_XY,
                             "--spec2", SPEC_YZ, "--out", proj) == set()
        assert scipy_modules("reconstruct", "points",
                             "--image1", proj / "image1.json",
                             "--image2", proj / "image2.json",
                             "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                             "--out", tmp_path / "rec") == set()
        assert scipy_modules("diagnose", "frobenius",
                             "--field-x", fixture_path("field_contact_x.json"),
                             "--field-y", fixture_path("field_contact_y.json"),
                             "--out", tmp_path / "diag") == set()
        (tmp_path / "cons.json").write_text(json.dumps(
            {"rows": [{"omega": [1, 0, 0]}, {"omega": [0, 1, 0]}], "dim": 3}))
        assert scipy_modules("toric", "solve",
                             "--constraints", tmp_path / "cons.json",
                             "--axis", "0,0,1", "--order", "4",
                             "--out", tmp_path / "solve") == set()

    @pytest.mark.parametrize("matrix_market", [False, True])
    def test_voxel_ops_load_no_scipy(self, matrix_market, tmp_path):
        dims = (3, 3, 3)
        ser.save_voxels(VoxelGrid(dims, 1.0, (0, 0, 0), np.ones(dims)),
                        tmp_path / "grid.json")
        specs = ("--spec1", SPEC_XY, "--spec2", SPEC_YZ)
        proj = tmp_path / "proj"
        assert scipy_modules("project", "--mode", "voxels",
                             "--input", tmp_path / "grid.json", *specs,
                             "--out", proj) == set()
        argv = ["reconstruct", "voxels", "--sino1", proj / "sino1.csv",
                "--sino2", proj / "sino2.csv", "--grid-dims", "3,3,3",
                *specs, "--out", tmp_path / "out"]
        if matrix_market:
            argv.append("--matrix-market")
        assert scipy_modules(*argv) == set()
        assert (tmp_path / "out" / "system.mtx").exists() == matrix_market

    def test_toric_detect_on_a_symmetric_cloud_loads_no_scipy(self,
                                                             tmp_path):
        ang = 2 * np.pi * np.arange(6) / 6
        pts = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)])
        ser.save_cloud(PointCloud(pts, np.ones(6)), tmp_path / "hex.json")
        assert scipy_modules(
            "toric", "detect", "--input", tmp_path / "hex.json",
            "--orders", "2,3,4,6", "--out", tmp_path / "out") == set()

    def test_toric_detect_without_a_matching_order_loads_spatial(self,
                                                                 tmp_path):
        # the report then needs the exact residual of failing rotations
        pts = np.random.default_rng(1).standard_normal((30, 3))
        ser.save_cloud(PointCloud(pts, np.ones(30)), tmp_path / "cloud.json")
        assert "scipy.spatial" in scipy_modules(
            "toric", "detect", "--input", tmp_path / "cloud.json",
            "--orders", "2,3", "--out", tmp_path / "out")


# Runs `python -m twoview.cli ARGS[1:]` like _RUN_CLI and, at exit, writes
# the collector's freeze count to the file ARGS[0]
_FREEZE_PROBE = """
import atexit, gc, runpy, sys
probe = sys.argv[1]
atexit.register(lambda: open(probe, "w").write(str(gc.get_freeze_count())))
sys.argv = ["twoview"] + sys.argv[2:]
runpy.run_module("twoview.cli", run_name="__main__", alter_sys=True)
"""


class TestProcessEntry:
    """`cli.run`, the process entry, freezes the collector before the
    interpreter's exit; `main`, the in-process API, never does."""

    def test_main_does_not_freeze(self, tmp_path):
        before = gc.get_freeze_count()
        assert run("project", "--input", CLOUD, *_SPECS,
                   "--out", tmp_path / "out") == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", [
        (("project", "--input", CLOUD, *_SPECS, "--out", "out"), 0),
        (("project", "--input", "no.json", *_SPECS, "--out", "out"), 2),
        (("--version",), 0),
    ], ids=["op", "refused-input", "version"])
    def test_fresh_run_exits_frozen_with_mains_outcome(self, argv, code,
                                                       tmp_path, capsys):
        (tmp_path / "fresh").mkdir()
        (tmp_path / "inproc").mkdir()
        proc = fresh_run(_FREEZE_PROBE, tmp_path / "count", *argv,
                         cwd=tmp_path / "fresh")
        assert int((tmp_path / "count").read_text()) > 0
        assert proc.returncode == code, proc.stderr
        cwd = os.getcwd()
        os.chdir(tmp_path / "inproc")
        try:
            try:
                got = run(*argv)
            except SystemExit as exc:  # --version
                got = exc.code
        finally:
            os.chdir(cwd)
        assert got == code
        assert (proc.stdout, proc.stderr) == capsys.readouterr()
        if code == 2:
            [line] = proc.stderr.splitlines()
            assert json.loads(line)["error"] == "InputError"
        assert (sorted(p.name for p in (tmp_path / "fresh").rglob("*"))
                == sorted(p.name for p in (tmp_path / "inproc").rglob("*")))

    def test_installed_script_is_run(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^twoview = "twoview\.cli:run"$', text, re.M)
