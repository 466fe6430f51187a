#!/usr/bin/env python3
"""Build and run cellspot's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 16 --trace 0

The Go program under perfbench/ is built from source into .bench_build/
(with its Go build cache there too), then run with the same arguments.
Everything the build and the run write stays inside .bench_build/. The
exit status is the benchmark's; a failed build exits 2 without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr, timeout=840,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    ran = subprocess.run([binary, "--root", root] + sys.argv[1:], env=env, timeout=178)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
