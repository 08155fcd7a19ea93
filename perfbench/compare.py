#!/usr/bin/env python3
"""Compares two sets of benchmark results and names the layer that slowed.

    python3 perfbench/compare.py BASELINE_DIR CANDIDATE_DIR

Each directory holds result records written by run.py (one JSON file per
run: untraced runs carry the end-to-end metrics, traced runs the per-layer
ones). Both sides must have results for the same workloads, each with every
end-to-end metric of BENCHMARK.json, and every run on both sides must have
checked its outputs correct. For every workload, the candidate's median of
each end-to-end metric must not be worse than the baseline's median by more
than the metric's bound in BENCHMARK.json. When one is, the per-layer
medians name the slowed layer: the layer time that grew by more than
LAYER_BOUND with the largest absolute increase.

Refuses to compare (exit 2) results taken with a different core count,
thread count, run length, build type or input size. Exit 1 on a regression,
an incorrect run or missing results; 0 otherwise.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Relative growth of a layer time that counts as slowed.
LAYER_BOUND = 0.25
# Provenance that fixes the measured work: results differing here are not
# comparable.
MUST_MATCH = ("nproc", "phase1_threads", "refine_threads", "seconds", "build_type",
              "trajectories", "points", "segments", "epsilon_m")
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


def layer_of(metric):
    for phase in ("phase1", "phase2", "phase3"):
        if metric.startswith(phase):
            return "core." + phase
    return metric.split(".", 1)[0]


def load(directory):
    """{workload: {"untraced": [records], "traced": [records]}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        rec["path"] = path
        kind = "traced" if rec.get("trace") else "untraced"
        runs.setdefault(rec["workload"], {"untraced": [], "traced": []})[kind].append(rec)
    return runs


def medians(records):
    values = {}
    units = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            if m["value"] is not None:
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
    return {k: statistics.median(v) for k, v in values.items()}, units


def provenance_mismatch(base, cand):
    problems = []
    for key in MUST_MATCH:
        b = {json.dumps(r["provenance"].get(key)) for r in base}
        c = {json.dumps(r["provenance"].get(key)) for r in cand}
        if b != c:
            problems.append(f"{key}: baseline {sorted(b)} vs candidate {sorted(c)}")
    return problems


def missing_results(base, cand, metrics):
    """Workloads or end-to-end metrics that have results on one side only."""
    problems = []
    for wl in sorted(set(base) | set(cand)):
        if wl not in base or wl not in cand:
            side = "baseline" if wl not in base else "candidate"
            problems.append(f"{wl}: no results in the {side}")
            continue
        for side, runs in (("baseline", base[wl]), ("candidate", cand[wl])):
            if not runs["untraced"]:
                problems.append(f"{wl}: no untraced results in the {side}")
            for rec in runs["untraced"]:
                for name in metrics:
                    if rec["metrics"].get(name, {}).get("value") is None:
                        problems.append(f"{wl}: {name} missing in {rec['path']}")
    return problems


def incorrect_runs(runs):
    return [f"{wl}: {rec['path']}: correct={rec['correct']}, failed {rec['failed']}"
            f" of {rec['attempted']}"
            for wl, kinds in sorted(runs.items())
            for rec in kinds["untraced"] + kinds["traced"]
            if not rec["correct"] or rec["failed"] > 0]


def slowed_layers(base, cand):
    """[(absolute increase in s, layer, metric, relative change)], largest first."""
    (bm, units), (cm, _) = medians(base), medians(cand)
    found = []
    for name, b in bm.items():
        unit = units.get(name)
        # pass_s is the whole traced pass, not a layer.
        if unit not in TIME_UNITS or name not in cm or name == "pass_s" or b <= 0:
            continue
        rel = cm[name] / b - 1.0
        if rel > LAYER_BOUND:
            found.append(((cm[name] - b) * TIME_UNITS[unit], layer_of(name), name, rel))
    return sorted(found, reverse=True)


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BASELINE_DIR CANDIDATE_DIR")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, cand = load(sys.argv[1]), load(sys.argv[2])

    unusable = missing_results(base, cand, bounds)
    unusable += [f"baseline {p}" for p in incorrect_runs(base)]
    unusable += [f"candidate {p}" for p in incorrect_runs(cand)]
    for p in unusable:
        print(f"FAILED {p}")
    if unusable:
        sys.exit(1)

    workloads = sorted(base)
    refused = False
    for wl in workloads:
        problems = provenance_mismatch(base[wl]["untraced"] + base[wl]["traced"],
                                       cand[wl]["untraced"] + cand[wl]["traced"])
        for p in problems:
            print(f"REFUSED {wl}: {p}")
        refused = refused or bool(problems)
    if refused:
        sys.exit(2)

    regressed = False
    for wl in workloads:
        (bm, units), (cm, _) = medians(base[wl]["untraced"]), medians(cand[wl]["untraced"])
        bad = []
        for name, spec in bounds.items():
            change = cm[name] / bm[name] - 1.0
            worse = change if spec["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > spec["bound"] else "ok"
            print(f"{wl:18s} {name:20s} {bm[name]:12.6g} -> {cm[name]:12.6g} {units[name]:6s}"
                  f" {change:+7.1%} (bound {spec['bound']:.0%}) {verdict}")
            if verdict != "ok":
                bad.append(name)
        if not bad:
            continue
        regressed = True
        layers = slowed_layers(base[wl]["traced"], cand[wl]["traced"])
        if not layers:
            print(f"{wl}: {', '.join(bad)} regressed; no traced results name a slowed layer")
        for delta, layer, metric, rel in layers:
            print(f"{wl}: slowed layer: {layer} ({metric} {rel:+.0%}, +{delta:.4g} s)")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
