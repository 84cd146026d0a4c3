"""twoview benchmark: seeded CLI workloads, oracle-checked, one command.

    python3 bench/run.py --workload points --seed 1 --seconds 7 --trace 0

`--trace 0` times each op as a `python -m twoview.cli ...` subprocess of
the checkout's `src` (closed loop, one op at a time) and prints the
end-to-end metrics.  `--trace 1` runs the same ops in-process, once
plain and once with every layer's public functions wrapped, and prints
the per-layer metrics.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
per-op figures and the provenance.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOLONOMY = Path(__file__).resolve().parent / "holonomy.py"
SETUPS = 3            # set-ups per run; setup_s is their median
MIN_PASSES = 2        # measured passes per run, however long a pass is
# Machine speed drifts by tens of percent over seconds on a shared host, so
# every timed op is rescaled by a pure-Python calibration loop timed right
# before and after it.  CALIB_REF_S is the loop's duration at the reference
# speed (a typical reading on a 2-core x86-64 VM, Python 3.11): at that
# speed a normalized time equals the wall time.
CALIB_LOOP = 800_000
CALIB_REF_S = 0.055
OP_TIMEOUT_S = 60.0
IMPORT_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "startup_s": "s", "pass_s": "s",
             "peak_rss_mb": "MB"}


# -- statistics --------------------------------------------------------------


def summary(values) -> dict:
    """Median and sample count, plus the highest of p75/p90/p95/p99 that
    has at least ten samples beyond it."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    for q in (99, 95, 90, 75):
        if len(vals) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(vals, n=100)[q - 1]
            break
    return out


# -- files -------------------------------------------------------------------


def digest(path: Path) -> dict:
    """sha256 of every file under `path`, by relative name."""
    return {str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.rglob("*")) if f.is_file()}


def provenance() -> dict:
    import numpy
    import scipy
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "twoview").rglob("*.py")):
        src_hash.update(f.relative_to(SRC).as_posix().encode())
        src_hash.update(f.read_bytes())
    return {"git_sha": sha, "src_sha256": src_hash.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


# -- subprocess ops ----------------------------------------------------------


def child_env() -> dict:
    """The checkout's sources, and one BLAS/OpenMP thread: ops run one at a
    time on a small machine, and idle pool threads only add noise."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({k: "1" for k in THREAD_VARS})
    return env


def run_child(cmd, cwd: Path, env) -> dict:
    """Run one op to completion; wall time, the child's own peak RSS from
    wait4, and whether it failed (exit code, stderr output, timeout)."""
    errpath = cwd / "stderr.txt"
    with open(errpath, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                             stderr=err)
        lock, state = threading.Lock(), {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    p.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            # wait without reaping, so the timer never signals a reused pid
            os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            kill()
            raise
        finally:
            with lock:
                state["exited"] = True
            timer.cancel()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
    stderr = errpath.read_text(encoding="utf-8", errors="replace").strip()
    errpath.unlink()
    why = ("timeout" if state["killed"] else
           f"exit {p.returncode}" if p.returncode else
           "stderr" if stderr else None)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "error": None if why is None else f"{why}: {stderr[:300]}"}


def op_cmd(op) -> list:
    if op.holonomy:
        return [sys.executable, str(HOLONOMY), *op.argv]
    return [sys.executable, "-m", "twoview.cli", *op.argv]


class Tally:
    """Ops attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, label: str, error) -> None:
        self.attempted += 1
        if error:
            self.errors.append(f"{label}: {error}")


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def run_timed(cmds, work: Path, env) -> list:
    """Run commands one at a time, timing the calibration loop before the
    first and after each.  `norm` is the wall time rescaled to the
    reference speed by the mean of the two calibrations around it."""
    shutil.rmtree(work / "out", ignore_errors=True)
    before = calibrate()
    results = []
    for cmd in cmds:
        res = run_child(cmd, work, env)
        after = calibrate()
        res["norm"] = res["wall"] * CALIB_REF_S / ((before + after) / 2)
        res["calib"] = (before + after) / 2
        results.append(res)
        before = after
    return results


def verify(ops, work: Path, results, truth, ref, tally: Tally, label: str):
    """Count each op once: its run error, else an oracle failure (first
    pass, when `ref` is None) or a byte difference from `ref`."""
    digests = {}
    for op, res in zip(ops, results):
        out = work / "out" / op.name
        digests[op.name] = digest(out) if out.is_dir() else {}
        error = res.get("error")
        if error is None and ref is None and op.check is not None:
            try:
                error = "; ".join(op.check(work / "out", truth)) or None
            except Exception as exc:  # malformed output is a failed op
                error = f"oracle could not read the output: {exc!r}"
        if error is None and ref is not None and digests[op.name] != ref[op.name]:
            error = "output bytes differ from the warm-up pass"
        tally.add(f"{label} {op.name}", error)
    return digests


# -- untraced run: subprocess ops --------------------------------------------


def untraced(wl, seed: int, seconds: float, work: Path):
    """Set up SETUPS times and run measured passes between the set-ups and
    after them, until MIN_PASSES passes and `seconds` of passes are done.
    Each set-up times one `--version` start-up probe, each pass two.
    Spreading the samples over the run, and rescaling each by the
    calibration next to it, removes most of the drift in machine speed."""
    env = child_env()
    ops = wl.ops(seed, **wl.sizes)
    cmds = [op_cmd(op) for op in ops]
    probe = [sys.executable, "-m", "twoview.cli", "--version"]
    tally = Tally()
    ref, ref_inputs = None, None
    samples = {k: [] for k in ("setup", "startup", "pass", "rss", "calib")}
    raw = {k: [] for k in ("setup", "startup", "pass")}
    per_op = {op.metric: [] for op in ops}   # (normalized, wall) per pass
    calibrate()   # the first call pays the interpreter's warm-up

    def probe_result(res):
        tally.add("startup", res["error"])
        samples["startup"].append(res["norm"])
        raw["startup"].append(res["wall"])

    def setup(k):
        nonlocal ref, ref_inputs
        d = work / f"setup{k}"
        cal = calibrate()
        t0 = time.perf_counter()
        truth = workloads.setup_inputs(wl, d, seed)
        gen = time.perf_counter() - t0
        *results, version = run_timed(cmds + [probe], d, env)  # warm-up pass
        samples["setup"].append(gen * CALIB_REF_S / cal
                                + sum(r["norm"] for r in results))
        raw["setup"].append(gen + sum(r["wall"] for r in results))
        probe_result(version)
        inp = digest(d / "in")
        if ref_inputs is not None and inp != ref_inputs:
            tally.add(f"setup{k} inputs", "generated inputs differ by set-up")
        digests = verify(ops, d, results, truth, ref, tally, f"setup{k}")
        if ref is None:
            ref, ref_inputs = digests, inp
        return d, truth

    def measured_pass(d, truth):
        first, *results, last = run_timed([probe] + cmds + [probe], d, env)
        probe_result(first)
        probe_result(last)
        verify(ops, d, results, truth, ref, tally,
               f"pass{len(samples['pass'])}")
        samples["pass"].append(sum(r["norm"] for r in results))
        raw["pass"].append(sum(r["wall"] for r in results))
        samples["rss"].append(max(r["rss_mb"] for r in results))
        samples["calib"].extend(r["calib"] for r in results)
        for m, pairs in per_op.items():
            pairs.append([sum(r[key] for op, r in zip(ops, results)
                              if op.metric == m) for key in ("norm", "wall")])

    def more():
        return (len(raw["pass"]) < MIN_PASSES
                or sum(raw["pass"]) < seconds)

    d, truth = setup(0)
    for k in range(1, SETUPS):
        if more():
            measured_pass(d, truth)
        d, truth = setup(k)
    while more():
        measured_pass(d, truth)

    values = {"setup_s": statistics.median(samples["setup"]),
              "startup_s": statistics.median(samples["startup"]),
              "pass_s": statistics.median(samples["pass"]),
              "peak_rss_mb": statistics.median(samples["rss"])}
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    detail = {
        "speed_factor": CALIB_REF_S / statistics.median(samples["calib"]),
        "setup_s": summary(samples["setup"]),
        "startup_s": summary(samples["startup"]),
        "pass_s": summary(samples["pass"]),
        "peak_rss_mb": summary(samples["rss"]),
        "ops": {m: {**summary([n for n, _ in v]), "unit": "s"}
                for m, v in per_op.items()},
        "wall": {**{f"{k}_s": summary(v) for k, v in raw.items()},
                 **{m: summary([w for _, w in v]) for m, v in per_op.items()}},
    }
    return metrics, tally, detail


# -- traced run: in-process ops with wrapped layers --------------------------


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import twoview.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True,
                             timeout=OP_TIMEOUT_S, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def in_process_pass(ops, work: Path, tracer=None) -> tuple[float, list]:
    import holonomy
    cli = sys.modules["twoview.cli"]
    shutil.rmtree(work / "out", ignore_errors=True)
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = (holonomy.run if op.holonomy else cli.main)(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            code = repr(exc)
        stderr = err.getvalue().strip()
        results.append({"error": None if code == 0 and not stderr
                        else f"exit {code}: {stderr[:300]}"})
    return time.perf_counter() - t0, results


def traced(wl, seed: int, seconds: float, work: Path):
    import_s = import_seconds()
    sys.path.insert(0, str(SRC))
    import twoview.cli  # noqa: F401  (loads every layer module)

    import spans

    ops = wl.ops(seed, **wl.sizes)
    tally = Tally()
    d = work / "trace"
    truth = workloads.setup_inputs(wl, d, seed)
    plain, wrapped, layers = [], [], []
    cwd = os.getcwd()
    os.chdir(d)
    try:
        _, results = in_process_pass(ops, d)    # warm-up and oracle pass
        ref = verify(ops, d, results, truth, None, tally, "warm-up")
        t_start = time.perf_counter()
        while True:
            wall, results = in_process_pass(ops, d)
            verify(ops, d, results, truth, ref, tally, f"plain{len(plain)}")
            plain.append(wall)
            tracer = spans.Tracer()
            tracer.install()
            try:
                wall, results = in_process_pass(ops, d, tracer)
            finally:
                tracer.uninstall()
            verify(ops, d, results, truth, ref, tally, f"traced{len(wrapped)}")
            wrapped.append(wall)
            layers.append(spans.layer_metrics(tracer.spans, tracer.counters))
            if time.perf_counter() - t_start >= seconds:
                break
    finally:
        os.chdir(cwd)

    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = (statistics.median(wrapped)
                                      / statistics.median(plain) - 1.0)
    metrics = {k: {"value": v, "unit": spans.unit(k)}
               for k, v in sorted(values.items())}
    span_file = write_spans(tracer.spans, ops, wl.name, seed)
    detail = {"plain_pass_s": summary(plain), "traced_pass_s": summary(wrapped),
              "spans_file": str(span_file.relative_to(ROOT))}
    return metrics, tally, detail


def write_spans(span_list, ops, workload: str, seed: int) -> Path:
    """The last traced pass's spans, times relative to its first span."""
    t0 = span_list[0].start if span_list else 0.0
    rows = [{"id": s.sid, "name": s.name, "op": ops[s.op].name,
             "parent": s.parent, "start": s.start - t0, "end": s.end - t0,
             "error": s.error} for s in span_list]
    path = ROOT / ".bench_out" / f"spans-{workload}-s{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return path


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "twoview" / "cli.py").is_file():
        print(f"bench: no twoview sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still kills its running op and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    load_start = os.getloadavg()
    try:
        run = traced if args.trace else untraced
        metrics, tally, detail = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    failed = len(tally.errors)
    detail.update({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": wl.sizes, "why": wl.why,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "failed_ratio": failed / tally.attempted, "errors": tally.errors[:20],
        "provenance": provenance()})
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, s in detail.get("ops", {}).items():
        print(f"{name:32s} {s['median']:.6g} s (median of {s['n']} passes)")
    print(f"{'failed_ratio':32s} {detail['failed_ratio']:.6g} 1")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
