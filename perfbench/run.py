#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its metrics.

    python3 perfbench/run.py --workload paper_stack --seed 1 --seconds 30 --trace 0

Run from the repository root. Only --workload is required; --seed defaults
to 1, --seconds to BENCHMARK.json's run_seconds and --trace to 0. The first run configures and builds the
simulator and the workload binary (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later runs only rebuild what changed.

Output: one "name value unit" line per metric, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones (the traced run also writes its spans to
.bench_build/spans/). --out FILE additionally writes the full record (digest,
work counts, health tallies, per-rep timings) for perfbench/compare.py.

Exit status: 0 when the correctness gate passes, 1 when it fails (the
result line is still printed, and so is the --out record), 2 on a bad
command line, 3 when the benchmark cannot be built. A workload binary that
dies or overruns --seconds by more than TIMEOUT_MARGIN_S fails the gate.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "omcast_perfbench")
WORKLOADS = ("paper_stack", "scale_churn", "packet_chaos")
# Each health tally is one failed member session (see README.md).
HEALTH_KEYS = (
    "health.dropped_arrivals",
    "health.stranded_orphans",
    "health.permanently_stalled",
    "health.reentries_pending",
    "health.wedged_leases",
)
# Untraced runs repeat the workload at least this often, so setup_s is a
# median of several set-ups.
MIN_REPS = 3
# The last rep starts before --seconds runs out and may take one rep's time
# (about 10 s for scale_churn); a binary still running this long after
# --seconds has hung.
TIMEOUT_MARGIN_S = 120


class UsageError(Exception):
    pass


def parse_args(argv):
    """Strict parser: --name value or --name=value, known names only, each
    at most once, and every flag needs a value (a bare flag never swallows
    the next argument)."""
    known = {"workload", "seed", "seconds", "trace", "out"}
    seen = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--") or arg == "--":
            raise UsageError(f"unexpected argument {arg!r}")
        name, eq, value = arg[2:].partition("=")
        if not eq:
            if i + 1 >= len(argv) or argv[i + 1].startswith("--"):
                raise UsageError(f"flag --{name} needs a value")
            value = argv[i + 1]
            i += 1
        i += 1
        if name not in known:
            raise UsageError(f"unknown flag --{name}")
        if name in seen:
            raise UsageError(f"flag --{name} given twice")
        seen[name] = value
    if "workload" not in seen:
        raise UsageError("missing --workload")
    seen.setdefault("seed", "1")
    if "seconds" not in seen:
        seen["seconds"] = str(load_benchmark()["run_seconds"])
    seen.setdefault("trace", "0")
    if seen["workload"] not in WORKLOADS:
        raise UsageError(f"unknown workload {seen['workload']!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    if not seen["seed"].isdigit() or int(seen["seed"]) >= 2**63:
        raise UsageError(f"--seed must be a non-negative integer, "
                         f"got {seen['seed']!r}")
    if not seen["seconds"].isdigit() or not 1 <= int(seen["seconds"]) <= 600:
        raise UsageError(f"--seconds must be a whole number in [1, 600], "
                         f"got {seen['seconds']!r}")
    if seen["trace"] not in ("0", "1"):
        raise UsageError(f"--trace must be 0 or 1, got {seen['trace']!r}")
    if "out" in seen and not seen["out"]:
        raise UsageError("--out needs a file name")
    return {
        "workload": seen["workload"],
        "seed": int(seen["seed"]),
        "seconds": int(seen["seconds"]),
        "trace": int(seen["trace"]),
        "out": seen.get("out"),
    }


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the workload binary; build output goes to
    stderr so the result line stays last on stdout."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found; run from the "
                           "repository root")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--parallel", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(args, spans_path):
    cmd = [BINARY, "--workload", args["workload"], "--seed", str(args["seed"]),
           "--seconds", str(args["seconds"]), "--trace", str(args["trace"]),
           "--min-reps", str(2 if args["trace"] else MIN_REPS)]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True,
                          timeout=args["seconds"] + TIMEOUT_MARGIN_S)
    if proc.returncode != 0:
        return None, f"workload binary exited with status {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def evaluate(record, pins):
    """The correctness gate. Every rep of the run (traced or not) must
    reproduce one digest and one set of work counts, and that digest must
    match the pinned value for the seed when one is pinned. A failed gate
    fails every op of the run; otherwise each health tally is one failed
    op. Returns (correct, ops, ops_failed, problems)."""
    reps = record["reps"]
    first = reps[0]
    problems = []
    for i, rep in enumerate(reps[1:], start=1):
        if rep["digest"] != first["digest"] or rep["stats"] != first["stats"]:
            kind = "traced" if rep["traced"] else "untraced"
            problems.append(f"rep {i} ({kind}) digest {rep['digest']} or work "
                            f"counts differ from rep 0 ({first['digest']})")
    pinned = pins.get(record["workload"], {}).get(str(record["seed"]))
    if pinned is not None and first["digest"] != pinned:
        problems.append(f"sim_digest {first['digest']} != pinned {pinned}")
    ops = int(first["ops"])
    if problems:
        return False, ops, ops, problems
    failed = sum(int(first["stats"].get(k, 0)) for k in HEALTH_KEYS)
    return True, ops, failed, []


# Host-time units. A rep's host times are scaled by its measured host speed
# (HostSpeed in src/instrument.h) and so read as time at the reference speed.
TIME_UNITS = {"s", "ms", "us", "ns"}


def end_to_end_metrics(record):
    reps = [r for r in record["reps"] if not r["traced"]]
    return {
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in reps),
        "sim_rate": statistics.median(r["sim_s"] / (r["run_s"] * r["speed"])
                                      for r in reps),
        "peak_rss_mb": record["peak_rss_mb"],
        "ops": float(reps[0]["ops"]),
    }


def per_layer_metrics(record, specs):
    """Medians over the traced reps. A layer that does no work on this
    workload reports nothing and reads 0; a name the binary reports that
    BENCHMARK.json does not list is an error. Each traced rep is scaled by
    the speed of the untraced rep just before it (the binary runs them in
    such pairs): on packet_chaos a traced rep takes no calibration slices
    inside its run, so its own speed is measured only next to it."""
    reps = record["reps"]
    traced = [dict(r, speed=reps[i - 1]["speed"])
              for i, r in enumerate(reps) if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    names = {s["name"] for s in specs}
    unknown = set(traced[0]["layers"]) - names
    if unknown:
        raise ValueError(f"workload binary reports unlisted metrics {sorted(unknown)}")
    units = {s["name"]: s["unit"] for s in specs}
    out = {name: 0.0 for name in names}
    for name in traced[0]["layers"]:
        scale = units[name] in TIME_UNITS
        out[name] = statistics.median(
            r["layers"][name] * (r["speed"] if scale else 1.0) for r in traced)
    out["trace.overhead_s"] = (
        statistics.median(r["total_s"] * r["speed"] for r in traced)
        - statistics.median(r["total_s"] * r["speed"] for r in untraced))
    out["host.speed"] = statistics.median(r["speed"] for r in untraced)
    return out


def write_out(args, record):
    if args["out"]:
        with open(args["out"], "w") as f:
            json.dump(record, f, indent=1)


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        print(f"run.py: {e}\nusage: python3 perfbench/run.py --workload "
              f"{'|'.join(WORKLOADS)} [--seed N] [--seconds S] [--trace 0|1] "
              f"[--out FILE]", file=sys.stderr)
        return 2
    try:
        bench = load_benchmark()
        pins = load_pins()
        build()
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        print(f"run.py: cannot build the benchmark: {e}", file=sys.stderr)
        return 3
    spans_path = None
    if args["trace"]:
        os.makedirs(os.path.join(".bench_build", "spans"), exist_ok=True)
        spans_path = os.path.join(
            ".bench_build", "spans",
            f"{args['workload']}-seed{args['seed']}.jsonl")
    try:
        record, error = run_binary(args, spans_path)
    except subprocess.TimeoutExpired:
        record, error = None, (f"workload binary still running "
                               f"{TIMEOUT_MARGIN_S} s after --seconds; killed")
    except (OSError, ValueError, IndexError) as e:
        record, error = None, f"workload binary gave no result: {e}"

    if record is None:
        # The workload binary died (for instance a failed Tree::CheckInvariants)
        # or hung: nothing it did can be trusted.
        print(f"run.py: {error}", file=sys.stderr)
        write_out(args, {"workload": args["workload"], "seed": args["seed"],
                         "trace": args["trace"], "correct": False, "ops": 1,
                         "ops_failed": 1, "sim_digest": None, "stats": {},
                         "metrics": {}, "error": error})
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    correct, ops, ops_failed, problems = evaluate(record, pins)
    specs = bench["per_layer"] if args["trace"] else bench["end_to_end"]
    values = (per_layer_metrics(record, specs) if args["trace"]
              else end_to_end_metrics(record))
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}

    first = record["reps"][0]
    pinned = str(args["seed"]) in pins.get(args["workload"], {})
    print(f"# {args['workload']} seed={args['seed']} reps={len(record['reps'])}"
          f" sim_digest={first['digest']} "
          f"({'pinned' if pinned else 'no pin for this seed: replay-checked only'})")
    for k in HEALTH_KEYS:
        print(f"# {k} {int(first['stats'].get(k, 0))}")
    plain = [r for r in record["reps"] if not r["traced"]]
    print(f"# host speed {statistics.median(r['speed'] for r in plain):.3f} "
          f"of the reference; unscaled sim_rate "
          f"{statistics.median(r['sim_s'] / r['run_s'] for r in plain):.6g}"
          f" sim_s/s")
    for p in problems:
        print(f"# CORRECTNESS GATE FAILED: {p}")
    print(f"ops_failed {ops_failed} count")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    write_out(args, {"workload": args["workload"], "seed": args["seed"],
                     "trace": args["trace"], "correct": correct,
                     "ops": ops, "ops_failed": ops_failed,
                     "sim_digest": first["digest"], "stats": first["stats"],
                     "metrics": metrics, "record": record})
    print(json.dumps({"correct": correct, "attempted": ops,
                      "failed": ops_failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
