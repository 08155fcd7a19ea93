#!/usr/bin/env python3
"""Self-test of the benchmark's regression check (see README.md).

    python3 perfbench/selftest.py

Runs city_csv twice on one seed, untraced and traced: once as is, once with
a delay added in the harness around the traj layer's entry call
(traj::load_dataset; nothing in the library changes). Then checks that
compare.py
  1. passes the baseline against itself,
  2. fails the slowed run on cluster_s and names the traj layer,
  3. refuses results taken on a different core count,
  4. fails a candidate whose outputs were not correct.
Exit 0 when all four hold.
"""
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(".bench_out", "selftest")
SLOWED_LAYER = "traj"
DELAY_MS = 800
SECONDS = 8


def run(out_dir, delay=""):
    for trace in ("0", "1"):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "city_csv",
               "--seed", "1", "--seconds", str(SECONDS), "--trace", trace, "--out-dir", out_dir]
        if delay:
            cmd += ["--delay", delay]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            sys.exit(f"selftest: benchmark run failed: {' '.join(cmd)}")


def compare(base, cand):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), base, cand],
                          cwd=ROOT, capture_output=True, text=True)
    print(proc.stdout, end="")
    return proc.returncode, proc.stdout


def altered_copy(src, dst, change):
    """Copies the untraced records of `src` into `dst`, each passed through `change`."""
    os.makedirs(os.path.join(ROOT, dst))
    for path in glob.glob(os.path.join(ROOT, src, "*.json")):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        if rec["trace"]:
            continue
        change(rec)
        with open(os.path.join(ROOT, dst, os.path.basename(path)), "w") as f:
            json.dump(rec, f)


def other_nproc(rec):
    rec["provenance"]["nproc"] += 1


def wrong_clusters(rec):
    rec["correct"] = False
    rec["failed"] = 1


def main():
    base, slow, other, wrong = (os.path.join(OUT, d)
                                for d in ("base", "slow", "other_nproc", "wrong"))
    shutil.rmtree(os.path.join(ROOT, OUT), ignore_errors=True)
    run(base)
    run(slow, f"{SLOWED_LAYER}={DELAY_MS}")

    failures = []
    code, _ = compare(base, base)
    if code != 0:
        failures.append(f"baseline vs itself: exit {code}, expected 0")
    code, out = compare(base, slow)
    if code != 1:
        failures.append(f"slowed run: exit {code}, expected 1")
    if "cluster_s" not in out or "REGRESSION" not in out:
        failures.append("slowed run: no cluster_s regression reported")
    named = [line for line in out.splitlines() if "slowed layer:" in line]
    if not named or f"slowed layer: {SLOWED_LAYER} " not in named[0]:
        failures.append(f"slowed run: first slowed layer is not {SLOWED_LAYER}: {named}")

    altered_copy(base, other, other_nproc)
    code, out = compare(base, other)
    if code != 2 or "REFUSED" not in out:
        failures.append(f"different core count: exit {code}, expected a refusal (2)")
    altered_copy(base, wrong, wrong_clusters)
    code, out = compare(base, wrong)
    if code != 1 or "FAILED" not in out:
        failures.append(f"incorrect candidate: exit {code}, expected a failure (1)")

    for f in failures:
        print("selftest FAILED:", f)
    print("selftest", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
