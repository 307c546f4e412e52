#!/usr/bin/env python3
"""Builds and runs the cloudalloc benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is the `perfbench` crate next to this file. It is built
twice from source: a plain build for end-to-end metrics and a build with
the program's `telemetry` feature for per-layer metrics. Both go under
`$CARGO_TARGET_DIR` (default `.bench_build`), in `plain/` and `traced/`.

`--trace 0` runs the plain build. `--trace 1` runs the plain build first,
then the traced build, each for half the seconds, handing the traced one
the plain median call time so it can report the tracing overhead. The
last stdout line is the JSON result; the exit code is the benchmark's
(non-zero when a correctness check failed).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir, traced):
    """Builds one variant and returns its binary's path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    if traced:
        cmd += ["--features", "telemetry"]
    # Cargo's own output must not reach stdout, whose last line is the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout.splitlines()


def flag(args, name):
    """The value following `name` in `args`, or None."""
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(args):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        plain = build(os.path.join(base, "plain"), traced=False)
        traced = build(os.path.join(base, "traced"), traced=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    if flag(args, "--trace") != "1":
        code, lines = run(plain, args)
        print("\n".join(lines), flush=True)
        return code

    # The two halves share the run's time.
    try:
        half = repr(max(1.0, float(flag(args, "--seconds")) / 2))
    except (TypeError, ValueError):
        half = None  # the benchmark itself reports the bad value
    plain_args, traced_args = list(args), list(args)
    plain_args[plain_args.index("--trace") + 1] = "0"
    for half_args in (plain_args, traced_args):
        if half:
            half_args[half_args.index("--seconds") + 1] = half
    code, lines = run(plain, plain_args)
    for line in lines:
        print(f"# plain: {line}")
    if code != 0 or not lines:
        return code or 1
    plain_p50 = json.loads(lines[-1])["metrics"]["p50_ms"]["value"]
    code, lines = run(traced, traced_args + ["--plain-p50-ms", repr(plain_p50)])
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
