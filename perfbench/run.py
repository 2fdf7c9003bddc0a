#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload checkpoint --seed 1 --seconds 10 --trace 0

Everything the build and the run write (Go build cache, binary, deployment
directories, span files) stays under .bench_build/ in the current
directory. The arguments are passed to the harness unchanged; its exit
status is returned, and a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
