#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is built with dune into
.bench_build/ and every file it writes goes under .bench_tmp/; both are
git-ignored.  The last line of standard output is the result JSON;
build output and diagnostics go to standard error.  Exits non-zero,
without printing a result, when the checkout lacks the library sources.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("perfbench: run from the root of a jamming-election checkout "
              "(dune-project, lib/ and perfbench/dune are required)", file=sys.stderr)
        return 2
    # Keep the build's temporary and cache files inside the checkout.
    tmp = os.path.abspath(os.path.join(".bench_tmp", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.abspath(os.path.join(".bench_tmp", "xdg-cache")))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    proc = subprocess.run([EXE] + sys.argv[1:], env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1
    print(json.dumps(json.loads(lines[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
