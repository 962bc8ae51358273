#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a repository checkout.

Usage, from the checkout root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

The script builds the Go package in perfbench/ (a module of its own that
imports the repository's packages through a relative replace directive)
into the build directory, then runs it with the given arguments. The build
directory is $CARGO_TARGET_DIR when set, else .bench_build; the Go build
cache, module cache and configuration live there too, so nothing is read
or written outside the checkout. Every argument is passed through; see
perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("perfbench: %s holds no go.mod; run from a full checkout\n" % root)
        return 2

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)  # an absolute value is kept as is
    home = os.path.join(build, "gohome")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(home, "gopath"),
        "GOMODCACHE": os.path.join(home, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(home, "config"),
        "HOME": home,
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(home, exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode

    args = [binary, "--root", root, "--out", os.path.join(build, "perfbench")] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
