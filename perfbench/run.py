#!/usr/bin/env python3
"""Builds and runs the repository's benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload, and prints the binary's
context lines followed, as the last line, by one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones (and
writes the span records under $CARGO_TARGET_DIR/perfbench-spans/). Exits
non-zero, without a result line, when the build, the run, or the result's
shape fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a run may take this long once built; the first run of a fresh checkout
# also compiles, and gets the longer deadline
RUN_DEADLINE_S = 175
BUILD_DEADLINE_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when the checkout is its own repository, else a
    digest of the sources the benchmark builds."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "shims", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    start = time.monotonic()
    started_at = time.time()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    trace = args.trace == "1"
    expected = declared_metrics(trace)

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)  # no-op when already absolute
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, timeout=BUILD_DEADLINE_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"build exceeded {BUILD_DEADLINE_S} s")
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    exe = os.path.join(target, "release", "perfbench")
    compiled = os.path.getmtime(exe) >= started_at - 1
    deadline = (BUILD_DEADLINE_S if compiled else RUN_DEADLINE_S) - (time.monotonic() - start)

    cmd = [exe,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", source_id()]
    if trace:
        cmd += ["--out", os.path.join(target, "perfbench-spans")]
    # its own process group, so a timeout also stops the set-up children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {deadline:.0f} s")
    if proc.returncode != 0:
        fail(f"run failed (exit {proc.returncode})")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("no JSON result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(expected):
        fail(f"metrics {sorted(result['metrics'])} != declared {sorted(expected)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        fail("attempted/failed are not valid counts")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
