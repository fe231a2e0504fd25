"""One cold set-up of an edwardsim CLI run, timed inside a fresh interpreter.

Set-up is what every CLI run pays before its per-unit work: importing
the package (numpy, scipy and every module the CLI loads), the first
covariance factor at the workload's grid size, the first-call fill of
the pair-index cache, the allocator's first use, and the CLI's fixed
cost of writing its outputs and manifest. The probe times all of it by running small versions of the workload's ops (a few
paths or chain iterations, everything else as in the real op) through
``edwardsim.cli.main`` with the allocator left as users get it. The time
runs from just before the first import to the return of the last op and
is printed as the last line, ``{"setup_s": <seconds>}``. A probe op that
exits non-zero makes the probe exit with code 1.

    python3 perfbench/setup_probe.py --src src --ops \
        '[["silt", "--paths", "1", "--out", ".perfbench_out/probe"]]'
"""

import argparse
import contextlib
import io
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--ops", required=True, help="JSON list of the probe ops' CLI argvs")
    args = ap.parse_args()
    ops = json.loads(args.ops)
    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    from edwardsim.cli import main as cli_main

    for argv in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            print(f"setup probe: {argv[0]} exited with {code}", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
