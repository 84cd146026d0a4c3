"""Output checks that do not use the code under test.

Each `check_*` function reads the program's output files, compares them
with the generated ground truth or a closed form, and returns a list of
failure messages (empty when the output is right).  Only numpy, scipy.io
and the standard library are used.  No check reads the transversality
margin value, whose definition is expected to change.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.io

POINT_TOL = 1e-9          # absolute, positions of order 1..5
NOISE_REL_TOL = 0.05      # Monte-Carlo error of rmse_mean is ~1% at 80 trials
VOXEL_TOL = 1e-8
HOLONOMY_TOL = 1e-9
ROUNDOFF_TOL = 1e-9       # quantities that vanish up to rounding


def load_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_points(path: Path):
    pts = load_json(path)["points"]
    pos = np.array([p["p"] for p in pts], dtype=float)
    return pos.reshape(len(pts), -1), np.array([p["w"] for p in pts], dtype=float)


def load_rows(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([[float(x) for x in row] for row in csv.reader(fh)
                         if row], dtype=float)


def _close(name, got, want, atol, rtol=0.0) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != expected {want.shape}"]
    err = np.abs(got - want) - rtol * np.abs(want)
    if err.size and not np.all(err <= atol):
        return [f"{name}: max error {float(np.max(np.abs(got - want))):.3g}"]
    return []


# -- points ------------------------------------------------------------------


def check_images(out: Path, truth) -> list:
    fails = []
    for i, (u, w, _) in enumerate(truth["frames"], start=1):
        pos, wts = load_points(out / f"project/image{i}.json")
        want = truth["positions"] @ np.column_stack([u, w])
        fails += _close(f"image{i} positions", pos, want, 1e-12, 1e-12)
        fails += _close(f"image{i} weights", wts, truth["weights"], 0.0)
    return fails


def check_reconstruction(out: Path, truth) -> list:
    pos, wts = load_points(out / "reconstruct/reconstructed.json")
    return (_close("reconstructed positions", pos, truth["positions"],
                   POINT_TOL)
            + _close("reconstructed weights", wts, truth["weights"], 0.0))


def noise_prediction(frames) -> float:
    """||D^+||_F for D = [u1; w1; u2; w2]: E[rmse^2] = sigma^2 ||D^+||_F^2
    because midpoint triangulation is the least-squares solve of D p = o."""
    D = np.vstack([frames[0][0], frames[0][1], frames[1][0], frames[1][1]])
    return float(np.linalg.norm(np.linalg.pinv(D)))


def check_noise(out: Path, truth) -> list:
    text = (out / "noise_study/noise.csv").read_text(encoding="utf-8")
    rows = list(csv.DictReader(ln for ln in text.splitlines()
                               if ln and not ln.startswith("#")))
    sigmas = truth["sigmas"]
    if [float(r["sigma"]) for r in rows] != list(sigmas):
        return [f"noise sigmas {[r['sigma'] for r in rows]} != {sigmas}"]
    scale = noise_prediction(truth["frames"])
    fails = []
    for r in rows:
        want = float(r["sigma"]) * scale
        got = float(r["rmse_mean"])
        if abs(got - want) > NOISE_REL_TOL * want:
            fails.append(f"noise rmse_mean {got} vs sigma*||D+||_F {want}")
    return fails


# -- voxels ------------------------------------------------------------------


def check_axis_sinograms(out: Path, truth) -> list:
    dens, h = truth["density"], truth["spacing"]
    return (_close("sino1 (sum over z)", load_rows(out / "project/sino1.csv"),
                   h * dens.sum(axis=2), 1e-12, 1e-12)
            + _close("sino2 (sum over x)", load_rows(out / "project/sino2.csv"),
                     h * dens.sum(axis=0), 1e-12, 1e-12))


def axis_min_norm(dens: np.ndarray) -> np.ndarray:
    """Closed-form min-norm solution from XY and YZ views.

    Each y-slice is an (x, z) matrix seen only through its row sums r and
    column sums c; the min-norm matrix with those sums is
    r_i/d + c_k/d - T/d^2 (T the slice total).
    """
    nx, _, nz = dens.shape
    r = dens.sum(axis=2)                    # (x, y)
    c = dens.sum(axis=0)                    # (y, z)
    t = dens.sum(axis=(0, 2))               # (y,)
    return (r[:, :, None] / nz + c[None, :, :] / nx
            - t[None, :, None] / (nx * nz))


def check_axis_recovery(out: Path, truth) -> list:
    dens = truth["density"]
    d = dens.shape[0]
    fails = []
    rank = load_json(out / "reconstruct/system.json")["rank"]
    if rank != 2 * d * d - d:
        fails.append(f"rank {rank} != 2d^2-d = {2 * d * d - d}")
    got = load_rows(out / "reconstruct/recovered.csv").reshape(dens.shape)
    fails += _close("recovered voxels", got,
                    np.maximum(axis_min_norm(dens), 0.0), VOXEL_TOL)
    return fails


def check_tilt(out: Path, truth) -> list:
    """The written system reproduces both sinograms from the true density,
    and its reported rank is the SVD rank (computed once per truth)."""
    A = scipy.io.mmread(str(out / "reconstruct/system.mtx")).toarray()
    sinos = np.concatenate([load_rows(out / f"project/sino{i}.csv").ravel()
                            for i in (1, 2)])
    if A.shape[0] != sinos.size:
        return [f"system has {A.shape[0]} rows, sinograms {sinos.size} pixels"]
    fails = _close("system.mtx @ density vs sinograms",
                   A @ truth["density"].ravel(), sinos, 1e-9, 1e-9)
    if "svd_rank" not in truth:
        truth["svd_rank"] = int(np.linalg.matrix_rank(A))
    rank = load_json(out / "reconstruct/system.json")["rank"]
    if rank != truth["svd_rank"]:
        fails.append(f"rank {rank} != SVD rank {truth['svd_rank']}")
    return fails


# -- diagnostics -------------------------------------------------------------


def interior(a: np.ndarray, depth: int = 1) -> np.ndarray:
    return a[depth:-depth, depth:-depth, depth:-depth]


def check_frobenius(out: Path, truth) -> list:
    x, y = truth["nodes"]
    got = load_json(out / "frobenius/report.json")["max_frobenius_residual"]
    want = float(np.max(2.0 / np.sqrt(1.0 + interior(x) ** 2
                                      + interior(y) ** 2)))
    return _close("frobenius max", got, want, 0.0, 1e-9)


def _vanishes(report: Path, key: str, why: str) -> list:
    got = load_json(report)[key]
    return [] if abs(got) <= ROUNDOFF_TOL else [f"{key} {got} not ~0 {why}"]


def check_hantjies(out: Path, truth) -> list:
    return _vanishes(out / "hantjies/report.json", "max_hantjies_norm",
                     "for a symmetric connection")


def check_jacobiator(out: Path, truth) -> list:
    return _vanishes(out / "jacobiator/report.json", "max_jacobiator_norm",
                     "for the plain bracket")


def check_curvature(out: Path, truth) -> list:
    got = load_json(out / "curvature/report.json")["max_curvature_norm"]
    return [] if math.isfinite(got) else [f"curvature norm {got} not finite"]


def check_certificate(out: Path, truth) -> list:
    cert = load_json(out / "certify/certificate.json")
    if cert["transversality"]["pass"] is not True or cert["unique"] is not False:
        return ["certificate: expected transversality pass, unique false"]
    return []


def check_algebra(out: Path, truth) -> list:
    alg = load_json(out / "algebra/report.json")
    if (alg["order"], alg["associative"], alg["moufang"]) != (
            truth["order"], True, True):
        return [f"algebra report is not an associative Moufang table of "
                f"order {truth['order']}: {alg}"]
    return []


def check_toric_detect(out: Path, truth) -> list:
    tor = load_json(out / "toric_detect/toric.json")
    fails = _close("toric axis", np.abs(tor["axis"]), [0, 0, 1], 1e-9)
    if tor["order"] != truth["fold"]:
        fails.append(f"toric order {tor['order']} != {truth['fold']}")
    return fails


def check_toric_solve(out: Path, truth) -> list:
    sol = load_json(out / "toric_solve/direction.json")
    return _close("toric solve direction", np.abs(sol["v"]), [0, 0, 1], 1e-9)


def holonomy_angle(theta: float, v0, v1) -> float:
    """Rotation of v in the orthonormal frame (e_theta, e_phi / sin theta)."""
    s = math.sin(theta)
    return math.atan2(s * v1[1], v1[0]) - math.atan2(s * v0[1], v0[0])


def wrap(angle: float) -> float:
    return math.remainder(angle, 2.0 * math.pi)


def check_holonomy(out: Path, truth) -> list:
    data = load_json(out / "transport/holonomy.json")
    if len(data["loops"]) != truth["n_loops"]:
        return [f"{len(data['loops'])} holonomy loops != {truth['n_loops']}"]
    fails = []
    for loop in data["loops"]:
        th = loop["theta"]
        err = wrap(holonomy_angle(th, data["v0"], loop["v"])
                   + 2.0 * math.pi * math.cos(th))
        if not abs(err) <= HOLONOMY_TOL:
            fails.append(f"holonomy at theta={th}: angle error {err:.3g}")
    return fails
