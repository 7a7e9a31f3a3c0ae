#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds campaign_bench (and the gfi library it links) from source in an
optimized configuration, then runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. The build directory is
$CARGO_TARGET_DIR/perfbench when that variable is set, else
.bench_build/perfbench; traces go to .bench_build/out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configures once, then rebuilds incrementally; raises on failure."""
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", directory, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(directory, "campaign_bench")


def main():
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, ".bench_build", "out")
    os.makedirs(out, exist_ok=True)
    args = [binary, *sys.argv[1:], "--pinned", os.path.join(HERE, "pinned"), "--out", out]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
