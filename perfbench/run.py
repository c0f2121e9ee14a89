#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the Go program in perfbench/ into .bench_build/ at the root of
the checkout, with the Go build cache, module cache, temporary files
and home directory all kept there, so nothing is written outside the
checkout. Then runs it with the same arguments. The program's last
output line is the result; the exit code is the program's.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "home/.config"),
        ("XDG_CACHE_HOME", "home/.cache"),
    ]:
        path = os.path.join(out, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    # Build only from the checkout: no toolchain or module downloads.
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = ""
    env["CGO_ENABLED"] = "0"
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build: {e}")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
