#!/usr/bin/env python3
"""Runs one workload of the whole-pipeline benchmark (see README.md).

    python3 perfbench/run.py --workload city_csv --seed 1 --seconds 20 --trace 0

Builds the harness and the library it measures from this checkout's sources
(into $CARGO_TARGET_DIR, default .bench_build, under the checkout root), runs
the workload, stamps the result file with build provenance (git sha when the
checkout is a git repository, and a digest of the sources either way), and
relays the harness's output. The last line of standard output is the JSON
result. Exits non-zero when the build fails, the sources are missing, or an
output check failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "perfbench", "harness")
WORKLOADS = ("city_csv", "corridor_columnar")
BUILD_TYPE = "RelWithDebInfo"  # the project's default build type


def source_digest():
    """sha256 over every file the harness build reads."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HARNESS]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for d, _, names in os.walk(top):
            files.extend(os.path.join(d, n) for n in names)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HARNESS, "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "neat_perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "neat_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=".bench_out",
                    help="result, span and input files, relative to the checkout root")
    ap.add_argument("--delay", default="",
                    help="self-test only: LAYER=MS sleeps around one layer call")
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout")
    binary = build()
    out_dir = os.path.join(ROOT, args.out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    if args.delay:
        cmd += ["--delay", args.delay]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)

    suffix = "-traced" if args.trace else ""
    record_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}{suffix}.json")
    if proc.returncode in (0, 1) and os.path.isfile(record_path):
        with open(record_path) as f:
            record = json.load(f)
        record["provenance"]["git_sha"] = git_sha()
        record["provenance"]["source_digest"] = source_digest()
        with open(record_path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        print(f"  provenance: git {record['provenance']['git_sha']}, sources "
              f"{record['provenance']['source_digest']}, result file {record_path}")
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
