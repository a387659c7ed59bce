#!/usr/bin/env python3
"""Re-pins the simulated-statistics digests in perfbench/pins.json.

    python3 perfbench/pin.py [--seeds 1-40] [--workloads a,b]

Run from the repository root. Runs each workload once per seed and records
its sim_digest in pins.json (entries for other workloads and seeds are
kept). Only a change that alters simulated behaviour on purpose re-pins, and
it says so; a speed-only change must leave pins.json alone. Also prints each
seed's health tallies (the failed-op breakdown). A seed whose run aborts is
reported and left unpinned. Runs JOBS seeds at a time.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

JOBS = 3


def main(argv):
    seeds, workloads = "1-40", ",".join(run.WORKLOADS)
    it = iter(argv)
    for arg in it:
        if arg == "--seeds":
            seeds = next(it, "")
        elif arg == "--workloads":
            workloads = next(it, "")
        else:
            raise SystemExit(f"pin.py: unknown argument {arg!r}")
    lo, _, hi = seeds.partition("-")
    chosen = workloads.split(",")
    if (not lo.isdigit() or not (hi or lo).isdigit()
            or any(w not in run.WORKLOADS for w in chosen)):
        raise SystemExit("usage: pin.py [--seeds LO-HI] [--workloads a,b]")
    run.build()
    todo = [(w, s) for w in chosen for s in range(int(lo), int(hi or lo) + 1)]
    pins = run.load_pins()
    for w in run.WORKLOADS:
        pins.setdefault(w, {})
    running = []
    while todo or running:
        while todo and len(running) < JOBS:
            w, s = todo.pop(0)
            cmd = [run.BINARY, "--workload", w, "--seed", str(s),
                   "--seconds", "1", "--trace", "0", "--min-reps", "1"]
            running.append((w, s, subprocess.Popen(
                cmd, stdout=subprocess.PIPE, text=True)))
        w, s, proc = running.pop(0)
        out, _ = proc.communicate()
        if proc.returncode != 0:
            pins[w].pop(str(s), None)
            print(f"{w} seed {s}: ABORTED (status {proc.returncode}), "
                  f"left unpinned", flush=True)
            continue
        rep = json.loads(out.strip().splitlines()[-1])["reps"][0]
        pins[w][str(s)] = rep["digest"]
        health = {k.split(".", 1)[1]: int(rep["stats"][k])
                  for k in run.HEALTH_KEYS if rep["stats"].get(k)}
        print(f"{w} seed {s}: {rep['digest']} ops {rep['ops']} "
              f"failed {health or 0}", flush=True)
    with open(os.path.join(run.HERE, "pins.json"), "w") as f:
        json.dump({w: dict(sorted(p.items(), key=lambda kv: int(kv[0])))
                   for w, p in pins.items()}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
