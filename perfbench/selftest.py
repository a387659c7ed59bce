#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and command line.

    python3 perfbench/selftest.py

Feeds run.py's checker injected workload-binary records -- a clean one, one whose
digest has a flipped bit, one with a nonzero health tally, and one whose
traced rep disagrees with the untraced rep -- and checks that every defect
raises ops_failed. Checks that compare.py refuses to compare a pair with a
failed run or with more failed ops on the change side. Then checks that
malformed command lines are rejected.
Needs no build; exits 0 when every case passes.
"""
import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402

DIGEST = "69e15dff51fd645a"


def record():
    rep = {"traced": False, "digest": DIGEST, "ops": 1000,
           "stats": {"sim.events": 123456.0, **{k: 0.0 for k in run.HEALTH_KEYS}},
           "layers": {}, "setup_s": 0.5, "run_s": 2.0, "sim_s": 300.0,
           "total_s": 2.6, "speed": 1.0}
    traced = dict(copy.deepcopy(rep), traced=True)
    return {"workload": "paper_stack", "seed": 7, "peak_rss_mb": 80.0,
            "reps": [copy.deepcopy(rep), traced]}


def flip_bit(digest):
    return f"{int(digest, 16) ^ 1:016x}"


def main():
    pins = {"paper_stack": {"7": DIGEST}}
    failures = []

    def expect(name, cond):
        print(f"{'ok  ' if cond else 'FAIL'} {name}")
        if not cond:
            failures.append(name)

    correct, ops, failed, _ = run.evaluate(record(), pins)
    expect("clean record passes with no failed ops",
           correct and ops == 1000 and failed == 0)

    rec = record()
    for rep in rec["reps"]:
        rep["digest"] = flip_bit(DIGEST)
    correct, ops, failed, _ = run.evaluate(rec, pins)
    expect("flipped digest fails the gate and every op",
           not correct and failed == ops == 1000)

    rec = record()
    for rep in rec["reps"]:
        rep["stats"]["health.reentries_pending"] = 1.0
    correct, _, failed, _ = run.evaluate(rec, pins)
    expect("nonzero health tally raises ops_failed", correct and failed == 1)

    rec = record()
    rec["reps"][1]["stats"]["sim.events"] += 1
    correct, ops, failed, _ = run.evaluate(rec, pins)
    expect("traced rep with different work counts fails every op",
           not correct and failed == ops)

    rec = record()
    rec["seed"] = 8
    correct, _, failed, _ = run.evaluate(rec, pins)
    expect("unpinned seed is replay-checked only", correct and failed == 0)

    clean = {"correct": True, "ops_failed": 0, "sim_digest": DIGEST,
             "stats": {"sim.events": 1.0}}
    expect("compare accepts two identical clean runs",
           compare.pair_problems(clean, dict(clean)) == [])
    dead = {"correct": False, "ops_failed": 1, "sim_digest": None,
            "stats": {}, "error": "workload binary exited with status -6"}
    expect("compare flags a run that failed the gate",
           len(compare.pair_problems(clean, dead)) == 1)
    expect("compare flags more failed ops on the change side",
           len(compare.pair_problems(clean, dict(clean, ops_failed=1))) == 1)

    good = ["--workload", "paper_stack", "--seed", "3", "--seconds", "10",
            "--trace", "0"]
    expect("contract command line parses",
           run.parse_args(good)["seed"] == 3)
    defaults = run.parse_args(["--workload", "scale_churn"])
    expect("seed, seconds and trace default to 1, run_seconds and 0",
           defaults["seed"] == 1 and defaults["trace"] == 0
           and defaults["seconds"] == run.load_benchmark()["run_seconds"])
    bad = {
        "unknown workload": ["--workload", "paper", "--seed", "1",
                             "--seconds", "10", "--trace", "0"],
        "bare flag before another flag": ["--workload", "paper_stack",
                                          "--seed", "--seconds", "10",
                                          "--trace", "0"],
        "bare flag at the end": good[:-1],
        "malformed seed": good[:3] + ["1x"] + good[4:],
        "negative seed": good[:3] + ["-1"] + good[4:],
        "zero seconds": good[:5] + ["0"] + good[6:],
        "fractional seconds": good[:5] + ["1.5"] + good[6:],
        "trace not 0/1": good[:7] + ["2"],
        "duplicate flag": good + ["--seed", "4"],
        "unknown flag": good + ["--threads", "2"],
        "positional argument": good + ["extra"],
        "missing workload": good[2:],
    }
    for name, argv in bad.items():
        try:
            run.parse_args(argv)
            expect(f"rejects {name}", False)
        except run.UsageError:
            expect(f"rejects {name}", True)

    print(f"{len(failures)} failures" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
