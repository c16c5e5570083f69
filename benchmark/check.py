#!/usr/bin/env python3
"""Compare two yardstick result files metric by metric against the bounds.

    benchmark/run.sh --check A.json B.json [--same-commit]

A is the baseline, B the candidate. For every workload and every bounded
metric both files report:

  ok          B's median is no worse than A's by more than the bound
  BREACH      it is worse by more than the bound            (exit code 1)
  unresolved  the medians agree, but a quartile range of A or B is wider
              than the bound, so the runs cannot show "unchanged"

Bounds come from BENCHMARK.json for the metrics it bounds and from the
result file itself for the rest (`e2e.*`). A metric whose baseline is 0 is
held to an absolute rule: any worsening breaches.

With --same-commit (what agree.sh passes) the two files must also have
measured the same inputs (equal `ops_hash` and seed), and every metric
marked `exact` must be bit-identical — except on `authority_scan`, whose
service workers are real threads.
"""
import json
import sys

THREADED = {"authority_scan"}
# Metrics that read about 0 in a healthy system: a difference smaller than
# this is granularity, not a change, whatever share of a tiny baseline it is.
RESOLUTION = {"e2e.heap_growth_bytes_per_name": 0.5}


def worsening(metric, a, b):
    """How much worse b is than a, as a share of a (absolute when a == 0)."""
    delta = (a - b) if metric["better"] == "higher" else (b - a)
    return delta / abs(a) if a != 0 else delta


def spread(metric):
    if "q1" not in metric or metric["value"] == 0:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def main(argv):
    same_commit = "--same-commit" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if len(paths) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec, a, b = (json.load(open(p)) for p in paths)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    breaches = unresolved = inexact = 0

    if same_commit and a["seed"] != b["seed"]:
        print(f"seeds differ: {a['seed']} vs {b['seed']}")
        inexact += 1

    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload}: missing from {paths[2]}")
            breaches += 1
            continue
        print(f"== {workload}")
        if same_commit and wa["ops_hash"] != wb["ops_hash"]:
            print(f"  ops_hash differs: {wa['ops_hash']} vs {wb['ops_hash']}")
            inexact += 1
        if wb["failed"] > wa["failed"]:
            print(f"  BREACH      failed answers {wa['failed']} -> {wb['failed']}")
            breaches += 1
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            bound = bounds.get(name, ma.get("bound"))
            if mb is None or bound is None:
                continue
            worse = worsening(ma, ma["value"], mb["value"])
            coarse = abs(ma["value"] - mb["value"]) < RESOLUTION.get(name, 0.0)
            if worse > bound and not coarse:
                verdict = "BREACH"
                breaches += 1
            elif max(spread(ma), spread(mb)) > bound:
                verdict = "unresolved"
                unresolved += 1
            else:
                verdict = "ok"
            note = ""
            if same_commit and ma.get("exact") and workload not in THREADED:
                if ma["value"] != mb["value"]:
                    note = "  NOT IDENTICAL"
                    inexact += 1
            print(
                f"  {verdict:<11} {name:<34} {ma['value']:>16.6f} -> {mb['value']:>16.6f} "
                f"{ma['unit']:<8} worse by {worse * 100:+7.2f}% (bound {bound * 100:g}%, "
                f"spread {spread(ma) * 100:.2f}% / {spread(mb) * 100:.2f}%){note}"
            )

    print(
        f"\n{breaches} breach(es), {unresolved} unresolved"
        + (f", {inexact} exact metric(s) or input(s) differing" if same_commit else "")
    )
    return 1 if breaches or inexact else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
