"""Latitude holonomy loops through `twoview.diffgeo.parallel_transport`.

The CLI has no transport subcommand, so the benchmark drives the library
function from here, in its own subprocess like every other op:

    PYTHONPATH=src python bench/holonomy.py --connection C.json --loops 20 \\
        --out out/transport

Loop k runs once around the latitude at theta node 2 + 2k, phi from 0 to
2 pi, and OUT/holonomy.json records theta and the transported vector.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

V0 = (1.0, 0.0, 0.0)


def run(argv) -> int:
    p = argparse.ArgumentParser(prog="holonomy")
    p.add_argument("--connection", required=True)
    p.add_argument("--loops", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    from twoview.diffgeo import parallel_transport
    from twoview.serialization import load_connection

    conn = load_connection(args.connection)
    thetas = conn.header.axis_coords(0)
    z0 = float(conn.header.axis_coords(2)[1])
    loops = []
    for theta in (float(thetas[2 + 2 * k]) for k in range(args.loops)):
        path = [(theta, 0.0, z0), (theta, 2.0 * math.pi, z0)]
        v = parallel_transport(conn, path, V0)
        loops.append({"theta": theta, "v": [float(x) for x in v]})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps({"v0": list(V0), "loops": loops}, indent=2,
                      sort_keys=True)
    (out / "holonomy.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
