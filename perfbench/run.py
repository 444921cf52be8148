#!/usr/bin/env python3
"""Build SheetMusiq from source and run one benchmark workload.

    python3 perfbench/run.py --workload explore|theorem1 \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build is `dune build` of the server
daemon and the benchmark program; the benchmark itself is
perfbench/sheetbench.ml (see perfbench/README.md). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the metric names are checked against
BENCHMARK.json before it is printed. Any failure to build, run or
validate exits non-zero without printing that line.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
SERVER = "_build/default/bin/sheetserved.exe"
BENCH = "_build/default/perfbench/sheetbench.exe"


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def commit_id():
    """The git revision when run inside a git checkout, else "none"."""
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def build():
    cmd = ["dune", "build", "--root", ".", "./bin/sheetserved.exe",
           "./perfbench/sheetbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die(f"build failed with exit code {done.returncode}")


def expected_names(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        die("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("unexpected keys in the result line")
    want = expected_names(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        die("metric names or units differ from BENCHMARK.json")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        die("nothing was attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["explore", "theorem1"])
    ap.add_argument("--seed", type=int, default=1,
                    help="stream seed (default 1; 2 is the documented held-out seed)")
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ("BENCHMARK.json", "dune-project", "bin", "lib"):
        if not os.path.exists(needed):
            die(f"{needed} not found: run from the root of a SheetMusiq checkout")
    build()
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", SERVER, "--commit", commit_id()]
    # its own process group, so a timeout also stops the daemon it spawned
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"benchmark did not finish within {RUN_TIMEOUT_S}s")
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        die(f"benchmark exited with code {proc.returncode}")
    validate(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
