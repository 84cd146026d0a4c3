import json

import numpy as np
import pytest

from twoview import serialization as ser
from twoview.cli import main
from twoview.data import fixture_path
from twoview.geometry import (
    PointCloud,
    ProjectionSpec,
    VoxelGrid,
    coordinate_spec,
    project_points,
)

CLOUD = str(fixture_path("sample_cloud.json"))
SPEC_XY = str(fixture_path("spec_xy.json"))
SPEC_YZ = str(fixture_path("spec_yz.json"))


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
        assert (rec / "system.mtx").exists()

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


class TestBoundaryValidation:
    """Bad input exits 2 with exactly one JSON error line on stderr."""

    def error(self, capsys):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

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

    @pytest.mark.parametrize("dims", ["a,b", "1,2", "2,0,2", "2,2,2,2", ""])
    def test_bad_grid_dims(self, dims, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("1.0,2.0\n2.0,3.0\n")
        code = run("reconstruct", "voxels", "--sino1", tmp_path / "s.csv",
                   "--sino2", tmp_path / "s.csv", "--grid-dims", dims,
                   "--spec1", SPEC_XY, "--spec2", SPEC_YZ,
                   "--out", tmp_path / "out")
        assert code == 2
        assert self.error(capsys)["error"] == "InputError"


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

    def test_solve(self, tmp_path):
        cons = {"rows": [{"omega": [1, 0, 0]}, {"omega": [0, 1, 0]}],
                "dim": 3}
        (tmp_path / "cons.json").write_text(json.dumps(cons))
        out = tmp_path / "out"
        assert run("toric", "solve", "--constraints", tmp_path / "cons.json",
                   "--axis", "0,0,1", "--order", "4", "--out", out) == 0
        rep = json.loads((out / "direction.json").read_text())
        np.testing.assert_allclose(np.abs(rep["v"]), [0, 0, 1], atol=1e-12)

    def test_solve_malformed(self, tmp_path, capsys):
        (tmp_path / "cons.json").write_text('{"wrong": 1}')
        code = run("toric", "solve", "--constraints", tmp_path / "cons.json",
                   "--axis", "0,0,1", "--order", "4",
                   "--out", tmp_path / "out")
        assert code == 2


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
        assert (a / "noise.csv").read_bytes() == (b / "noise.csv").read_bytes()


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

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("twoview ")
