#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and
builds simbench/ (which compiles the spp library from src/) into
.bench_build/simbench; later runs only rebuild what changed. Build
output goes to stderr. Any other flag of the benchmark binary
(--scale, --max-ticks, ...) passes through; see simbench/README.md.
The last line of standard output is the JSON summary.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")


def build():
    """Configure (once) and build the benchmark; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to "
                           "simbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "simbench")


def main():
    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"simbench: build failed: {err}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    # The run manifest records `git describe`; stop git from looking
    # for a repository above this checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    cmd = [exe,
           "--digest-file", os.path.join(HERE, "digests_seed1.txt"),
           "--out-dir", BUILD,
           *sys.argv[1:]]
    return subprocess.run(cmd, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
