#!/usr/bin/env python3
"""A/B comparison of two checkouts on the repo benchmark.

    python3 perfbench/compare.py --parent ../parent --change . \
        [--workloads paper_stack,scale_churn] [--pairs 10] [--seed 1] \
        [--trace 0] [--json report.json]

Runs `python3 perfbench/run.py` in each checkout (each builds its own
.bench_build) for --pairs parent/change pairs per workload, alternating which
side runs first. Pair i uses seed --seed + i on both sides. For every metric
it reports each side's median and quartiles, the change's win share (ties
count for neither side) and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (per-layer metrics have
              no bound: the mirror image of "improved")
  unresolved  the parent's own spread is wider than the bound and the change
              does not beat every parent run
  unchanged   otherwise

Runs last BENCHMARK.json's run_seconds. Every pair must also agree exactly
on sim_digest and on the work counts: a change that only claims speed must
leave them bit-identical. A run that fails the correctness gate (or whose
binary dies), and a change run with more failed ops than its parent, are
mismatches too. Any mismatch is listed and makes the exit status 1; on a
workload with a mismatch no metric is reported as improved.

    python3 perfbench/compare.py --equal A.json B.json

checks two records written by `run.py --out` for the same exact equality.
"""
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9


def parse_args(argv):
    opts = {"workloads": None, "pairs": "10", "seed": "1", "trace": "0", "json": None, "parent": None, "change": None}
    if argv[:1] == ["--equal"]:
        if len(argv) != 3:
            raise SystemExit("usage: compare.py --equal A.json B.json")
        return {"equal": argv[1:]}
    i = 0
    while i < len(argv):
        name, eq, value = argv[i][2:].partition("=")
        if not argv[i].startswith("--") or name not in opts:
            raise SystemExit(f"compare.py: unknown argument {argv[i]!r}")
        if not eq:
            if i + 1 >= len(argv) or argv[i + 1].startswith("--"):
                raise SystemExit(f"compare.py: flag --{name} needs a value")
            value = argv[i + 1]
            i += 1
        opts[name] = value
        i += 1
    if not opts["parent"] or not opts["change"]:
        raise SystemExit("compare.py: --parent and --change are required")
    for key in ("pairs", "seed"):
        if not opts[key].isdigit():
            raise SystemExit(f"compare.py: --{key} must be a whole number")
    if int(opts["pairs"]) < 2:
        raise SystemExit("compare.py: --pairs must be at least 2")
    if opts["trace"] not in ("0", "1"):
        raise SystemExit("compare.py: --trace must be 0 or 1")
    return opts


def diff_work(a, b):
    """Names of the exact-equality fields on which two records differ."""
    out = []
    if a["sim_digest"] != b["sim_digest"]:
        out.append(f"sim_digest {a['sim_digest']} != {b['sim_digest']}")
    for key in sorted(set(a["stats"]) | set(b["stats"])):
        if a["stats"].get(key) != b["stats"].get(key):
            out.append(f"{key}: {a['stats'].get(key)} != {b['stats'].get(key)}")
    return out


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    n = len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (cm - pm)
    if wins >= WIN_SHARE * n and gain > spread:
        return "improved", wins / n
    if bound is None:
        if losses >= WIN_SHARE * n and -gain > spread:
            return "worse", wins / n
        return ("unchanged" if abs(gain) <= spread else "unresolved"), wins / n
    scale = abs(pm) if pm != 0 else 1.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread / scale > bound and not all_better:
        return "unresolved", wins / n
    if -gain / scale > bound:
        return "worse", wins / n
    return "unchanged", wins / n


def run_side(checkout, workload, seed, trace, out_path):
    # A record left by an earlier compare must never stand in for this run.
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--out", out_path]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if proc.returncode not in (0, 1) or not os.path.exists(out_path):
        raise SystemExit(f"compare.py: run failed in {checkout} "
                         f"(status {proc.returncode}): {' '.join(cmd)}")
    with open(out_path) as f:
        return json.load(f)


def pair_problems(parent, change):
    """Why one parent/change pair cannot be compared, or []."""
    out = [f"{side} run failed the correctness gate"
           + (f" ({rec['error']})" if rec.get("error") else "")
           for side, rec in (("parent", parent), ("change", change))
           if not rec["correct"]]
    if out:
        return out
    if change["ops_failed"] > parent["ops_failed"]:
        out.append(f"ops_failed {parent['ops_failed']} -> "
                   f"{change['ops_failed']}")
    return out + diff_work(parent, change)


def main(argv):
    opts = parse_args(argv)
    if "equal" in opts:
        with open(opts["equal"][0]) as fa, open(opts["equal"][1]) as fb:
            problems = diff_work(json.load(fa), json.load(fb))
        for p in problems:
            print(f"MISMATCH {p}")
        print("work counts and sim_digest identical" if not problems else
              f"{len(problems)} mismatches")
        return 1 if problems else 0

    parent = os.path.abspath(opts["parent"])
    change = os.path.abspath(opts["change"])
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    trace = int(opts["trace"])
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    workloads = (opts["workloads"].split(",") if opts["workloads"]
                 else [w["name"] for w in bench["workloads"]])
    pairs = int(opts["pairs"])
    if pairs < 10:
        print(f"note: {pairs} pairs; a gain needs at least 10 pairs to be "
              f"claimed, so these verdicts are indicative only")
    scratch = os.path.join(change, ".bench_build", "compare")
    os.makedirs(scratch, exist_ok=True)

    report = {}
    mismatches = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        clean = {"parent": [], "change": []}
        workload_mismatches = 0
        for i in range(pairs):
            seed = int(opts["seed"]) + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                out = os.path.join(scratch, f"{workload}-{side}-{seed}.json")
                rec = run_side(parent if side == "parent" else change,
                               workload, seed, trace, out)
                runs[side].append(rec)
            problems = pair_problems(runs["parent"][-1], runs["change"][-1])
            for p in problems:
                mismatches.append(f"{workload} seed {seed}: {p}")
            workload_mismatches += len(problems)
            if not problems:
                for side in clean:
                    clean[side].append(runs[side][-1])
        rows = {}
        # Metrics come from the pairs that passed the gate; with fewer than
        # two there is nothing to compare.
        for spec in specs if len(clean["parent"]) >= 2 else []:
            name = spec["name"]
            pv = [r["metrics"][name]["value"] for r in clean["parent"]]
            cv = [r["metrics"][name]["value"] for r in clean["change"]]
            v, share = verdict(pv, cv, spec["better"], spec.get("bound"))
            if v == "improved" and workload_mismatches:
                v = "unresolved"
            rows[name] = {"unit": spec["unit"], "verdict": v,
                          "win_share": share,
                          "parent": dict(zip(("q1", "median", "q3"),
                                             quartiles(pv))),
                          "change": dict(zip(("q1", "median", "q3"),
                                             quartiles(cv)))}
        rows["ops_failed"] = {
            "parent": [r["ops_failed"] for r in runs["parent"]],
            "change": [r["ops_failed"] for r in runs["change"]]}
        report[workload] = rows
        print(f"== {workload} ({pairs} pairs, seeds {opts['seed']}.."
              f"{int(opts['seed']) + pairs - 1}, {len(clean['parent'])} "
              f"compared)")
        print(f"{'metric':28} {'parent med [q1,q3]':>34} "
              f"{'change med [q1,q3]':>34} {'wins':>5}  verdict")
        for name, row in rows.items():
            if name == "ops_failed":
                continue
            p, c = row["parent"], row["change"]
            print(f"{name:28} {p['median']:12.6g} [{p['q1']:.5g},{p['q3']:.5g}]"
                  f" {c['median']:12.6g} [{c['q1']:.5g},{c['q3']:.5g}]"
                  f" {row['win_share']:5.2f}  {row['verdict']}")
        print(f"ops_failed parent {rows['ops_failed']['parent']} "
              f"change {rows['ops_failed']['change']}")

    for m in mismatches:
        print(f"MISMATCH {m}")
    print("every run passed the gate; work counts and sim_digest identical "
          "across every pair" if not mismatches
          else f"{len(mismatches)} mismatches")
    if opts["json"]:
        with open(opts["json"], "w") as f:
            json.dump({"report": report, "mismatches": mismatches}, f,
                      indent=1)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
