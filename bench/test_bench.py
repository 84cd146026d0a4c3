"""Self-tests of the benchmark: generator determinism, oracles that reject
corrupted outputs, and span self-time arithmetic.  Tiny inputs, seconds.

    python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import twoview.cli  # noqa: E402,F401  (the in-process passes call it)
import twoview.recon  # noqa: E402


def tiny_pass(name, root: Path, monkeypatch, seed=3, tracer=None):
    """Generate tiny inputs and run one in-process pass over them."""
    wl = workloads.WORKLOADS[name]
    truth = workloads.setup_inputs(wl, root, seed, wl.tiny)
    ops = wl.ops(seed, **wl.tiny)
    monkeypatch.chdir(root)
    _, results = run.in_process_pass(ops, root, tracer)
    assert [r["error"] for r in results] == [None] * len(ops)
    return ops, truth


def check_all(ops, root, truth) -> list:
    return [f for op in ops if op.check for f in op.check(root / "out", truth)]


def edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.setup_inputs(wl, tmp_path / sub, seed, wl.tiny)
    a, b, c = (run.digest(tmp_path / s / "in") for s in "abc")
    assert a and a == b
    assert a != c


# -- oracles -----------------------------------------------------------------


def test_points_oracles_reject_perturbed_point(tmp_path, monkeypatch):
    ops, truth = tiny_pass("points", tmp_path, monkeypatch)
    assert check_all(ops, tmp_path, truth) == []
    rec = tmp_path / "out/reconstruct/reconstructed.json"
    edit_json(rec, lambda d: d["points"][7]["p"].__setitem__(1, 1e-6 + d[
        "points"][7]["p"][1]))
    assert oracles.check_reconstruction(tmp_path / "out", truth)
    img = tmp_path / "out/project/image2.json"
    edit_json(img, lambda d: d["points"][0]["p"].__setitem__(0, 9.0))
    assert oracles.check_images(tmp_path / "out", truth)


def test_noise_oracle_rejects_inflated_rmse(tmp_path, monkeypatch):
    ops, truth = tiny_pass("points", tmp_path, monkeypatch)
    path = tmp_path / "out/noise_study/noise.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * 1.2)
    path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    assert oracles.check_noise(tmp_path / "out", truth)


@pytest.mark.parametrize("name,check", [
    ("voxels-axis", oracles.check_axis_recovery),
    ("voxels-tilt", oracles.check_tilt),
])
def test_voxel_oracles_reject_rank_off_by_one(name, check, tmp_path,
                                              monkeypatch):
    ops, truth = tiny_pass(name, tmp_path, monkeypatch)
    assert check_all(ops, tmp_path, truth) == []
    edit_json(tmp_path / "out/reconstruct/system.json",
              lambda d: d.__setitem__("rank", d["rank"] + 1))
    assert any("rank" in f for f in check(tmp_path / "out", truth))


def test_axis_oracle_rejects_wrong_voxel(tmp_path, monkeypatch):
    ops, truth = tiny_pass("voxels-axis", tmp_path, monkeypatch)
    path = tmp_path / "out/reconstruct/recovered.csv"
    text = path.read_text()
    first, rest = text.split(",", 1)
    path.write_text(repr(float(first) + 1e-3) + "," + rest)
    assert oracles.check_axis_recovery(tmp_path / "out", truth)


def test_diagnostics_oracles_reject_wrong_order_and_flipped_holonomy(
        tmp_path, monkeypatch):
    ops, truth = tiny_pass("diagnostics", tmp_path, monkeypatch)
    out = tmp_path / "out"
    assert check_all(ops, tmp_path, truth) == []
    edit_json(out / "toric_detect/toric.json",
              lambda d: d.__setitem__("order", 3))
    assert oracles.check_toric_detect(out, truth)

    def flip(d):
        for loop in d["loops"]:
            loop["v"][1] = -loop["v"][1]
    edit_json(out / "transport/holonomy.json", flip)
    assert oracles.check_holonomy(out, truth)
    edit_json(out / "algebra/report.json",
              lambda d: d.__setitem__("associative", False))
    assert oracles.check_algebra(out, truth)


# -- tracing -----------------------------------------------------------------


def span(sid, start, end, parent=None, layer="recon", name="f"):
    return spans.Span(sid, f"{layer}.{name}", layer, start, end, parent, 0)


def test_self_time_subtracts_covered_child_time():
    tree = [span(0, 0.0, 10.0, layer="cli", name="main"),
            span(1, 1.0, 4.0, 0, layer="serialization", name="load_cloud"),
            span(2, 2.0, 3.0, 1, layer="serialization", name="_load_json"),
            span(3, 5.0, 7.0, 0, name="noise_study"),
            span(4, 5.5, 6.0, 3, name="reconstruct_cloud")]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 1.5, 0.5]
    m = spans.layer_metrics(tree, spans.defaultdict(float))
    assert (m["cli.self_s"], m["serialization.self_s"], m["recon.self_s"]) \
        == (5.0, 3.0, 2.0)
    assert m["recon.noise_study_s"] == 1.5
    assert m["serialization.load_s"] == 3.0   # the nested load counts once
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == 10.0


def test_self_time_counts_overlapping_children_once():
    tree = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == 5.0


def test_tracer_nests_rank_under_build_and_restores(tmp_path, monkeypatch):
    original = twoview.recon.elimination_rank
    tracer = spans.Tracer()
    tracer.install()
    try:
        tiny_pass("voxels-axis", tmp_path, monkeypatch, tracer=tracer)
    finally:
        tracer.uninstall()
    assert twoview.recon.elimination_rank is original
    by_id = {s.sid: s for s in tracer.spans}
    ranks = [s for s in tracer.spans if s.name == "recon.elimination_rank"]
    assert ranks and all(by_id[s.parent].name == "recon.build_radon_system"
                         for s in ranks)
    assert {s.op for s in tracer.spans} == {0, 1}
    m = spans.layer_metrics(tracer.spans, tracer.counters)
    assert m["recon.radon_rank"] == 2 * 4 * 4 - 4
    assert m["cli.calls"] >= 4 and m["recon.errors"] == 0
