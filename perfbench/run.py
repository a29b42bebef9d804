#!/usr/bin/env python3
"""The repo benchmark: build dpv from source, run one workload, check it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload model-release --seed 1 --seconds 15 --trace 0

Builds perfbench/ (the dpv library plus the benchmark program) into
.bench_build/perfbench, runs the workload, compares every verdict with
the committed known answers in perfbench/known_answers/ and prints one
line per metric followed, as the last line of standard output, by
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; a traced run also writes a Chrome trace-event file to
.bench_out/.

Other modes:
    --inputs heldout     the second, held-out battery (confirming claims)
    --derive-answers     rewrite perfbench/known_answers/ for a workload
    --self-test          check metric names and units against
                         BENCHMARK.json and that a flipped expected
                         verdict trips the known-answer check
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "dpv_perfbench")
ANSWERS_DIR = os.path.join(HERE, "known_answers")
WORKLOADS = ("model-release", "recertify", "deep-proof")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message, code=1):
    log("perfbench: " + message)
    sys.exit(code)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures once, then lets cmake decide what to rebuild."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "campaign.hpp")):
        fail("dpv sources (src/) not found next to perfbench/", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as build_log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs()])
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def tag(workload, inputs):
    return workload + ("-heldout" if inputs == "heldout" else "")


def run_program(workload, seed, seconds, trace, inputs):
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--inputs", inputs, "--out-dir", OUT_DIR,
               "--threads", jobs()]
    # The program's own chatter goes to stderr so the result line stays last.
    if subprocess.run(command, stdout=sys.stderr).returncode:
        fail("benchmark program failed: " + " ".join(command))
    with open(os.path.join(OUT_DIR, "answers-%s.txt" % tag(workload, inputs))) as f:
        return f.read()


def known_answers_path(workload, inputs):
    return os.path.join(ANSWERS_DIR, tag(workload, inputs) + ".txt")


def check_answers(workload, expected, actual):
    """Returns how many operations got a wrong verdict.

    model-release answers are whole report tables and must match byte for
    byte. The synthetic batteries hold one "<operation> <VERDICT>" line
    per operation: UNKNOWN is undecided (the program counts it as failed),
    any other difference (including an UNSAFE whose witness did not
    re-validate) is wrong.
    """
    if workload == "model-release":
        if expected == actual:
            return 0
        for i, (want, got) in enumerate(zip(expected.splitlines(), actual.splitlines())):
            if want != got:
                log("known-answer mismatch at line %d:\n  want: %s\n  got:  %s" % (i + 1, want, got))
                break
        return 1

    def parse(text):
        return dict(line.rsplit(" ", 1) for line in text.splitlines() if line.strip())

    want, got = parse(expected), parse(actual)
    wrong = 0
    for key in sorted(set(want) | set(got)):
        if want.get(key) == got.get(key) or (key in want and got.get(key) == "UNKNOWN"):
            continue
        wrong += 1
        log("known-answer mismatch: %s: want %s, got %s" % (key, want.get(key), got.get(key)))
    return wrong


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, inputs):
    build()
    actual = run_program(workload, seed, seconds, trace, inputs)
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag(workload, inputs))) as f:
        result = json.load(f)
    with open(known_answers_path(workload, inputs)) as f:
        expected = f.read()
    wrong = check_answers(workload, expected, actual)
    if not result["answers_consistent"]:
        log("verdicts differed between passes of one run")
    if result["replay_mismatches"]:
        log("%d replayed verdicts differ from their orchestrator's" % result["replay_mismatches"])
    correct = wrong == 0 and result["answers_consistent"] and result["replay_mismatches"] == 0

    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("program did not report: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print("workload %s, seed %d, inputs %s: %d passes, %d operations, %d undecided, "
          "known answers %s" % (workload, seed, inputs, result["passes"], result["attempted"],
                                result["undecided"], "match" if correct else "MISMATCH"))
    print("verdict tail = p%g over %d samples" % (result["tail_percentile"],
                                                  result["latency_samples"]))
    print("pass walls: %s s" % ", ".join("%.4f" % s for s in result["passes_s"]))
    print("unnormalized: %s" % ", ".join("%s %.6g" % kv for kv in result["raw"].items()))
    if trace:
        print("replays: %d, matching their orchestrator: %d" % (
            result["replays"], result["replays"] - result["replay_mismatches"]))
        for name, cover in sorted(result["child_coverage"].items()):
            print("child spans cover %.4f of %s" % (cover, name))
        print("trace file: %s" % os.path.join(OUT_DIR, "trace-%s.json" % tag(workload, inputs)))
    for name, metric in metrics.items():
        print("%s = %.6g %s" % (name, metric["value"], metric["unit"]))
    return {"correct": bool(correct), "attempted": int(result["attempted"]),
            "failed": int(result["undecided"]), "metrics": metrics}


def derive(workload, inputs):
    """Known answers: synthetic SAFE/UNSAFE verdicts from the dense-tableau
    LP engine; model-release tables from a single-threaded run (the timed
    runs use every core, so the byte compare also checks thread-count
    determinism)."""
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    answers_file = os.path.join(OUT_DIR, "answers-%s.txt" % tag(workload, inputs))
    command = [BINARY, "--workload", workload, "--seed", "1", "--seconds", "0.001",
               "--trace", "0", "--inputs", inputs, "--out-dir", OUT_DIR]
    command += ["--threads", "1"] if workload == "model-release" else ["--derive-answers"]
    if subprocess.run(command, stdout=sys.stderr).returncode:
        fail("derivation failed")
    with open(answers_file) as f:
        text = f.read()
    os.makedirs(ANSWERS_DIR, exist_ok=True)
    with open(known_answers_path(workload, inputs), "w") as f:
        f.write(text)
    log("wrote " + known_answers_path(workload, inputs))


def flip_one(workload, text):
    """The known-answer text with one decided verdict flipped."""
    if workload == "model-release":
        return text.replace("SAFE (conditional", "UNSAFE (conditional", 1)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key, verdict = line.rsplit(" ", 1)
        if verdict in ("SAFE", "UNSAFE"):
            lines[i] = key + " " + ("UNSAFE" if verdict == "SAFE" else "SAFE")
            break
    return "\n".join(lines) + "\n"


def self_test(workloads):
    spec = load_spec()
    problems = []
    for workload in workloads:
        for trace in (False, True):
            result = run_once(workload, 1, 1, trace, "primary")
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            if set(result["metrics"]) != {m["name"] for m in declared}:
                problems.append("%s trace=%d: metric names differ" % (workload, trace))
            for m in declared:
                if result["metrics"][m["name"]]["unit"] != m["unit"]:
                    problems.append("%s: unit of %s" % (workload, m["name"]))
            with open(os.path.join(OUT_DIR, "result-%s.json" % workload)) as f:
                values = json.load(f)["per_layer" if trace else "end_to_end"]
            extra = set(values) - {m["name"] for m in declared}
            if extra:
                problems.append("%s: undeclared metrics %s" % (workload, sorted(extra)))
            if not result["correct"]:
                problems.append("%s trace=%d: known answers do not match" % (workload, trace))
        with open(os.path.join(OUT_DIR, "answers-%s.txt" % workload)) as f:
            actual = f.read()
        if check_answers(workload, flip_one(workload, actual), actual) == 0:
            problems.append("%s: a flipped expected verdict was not detected" % workload)
        else:
            log("%s: flipped expected verdict detected, as it must be" % workload)
    for problem in problems:
        log("SELF-TEST FAILURE: " + problem)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", choices=("primary", "heldout"), default="primary")
    parser.add_argument("--derive-answers", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test([args.workload] if args.workload else WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "model-release" and args.inputs == "heldout":
        parser.error("model-release has one input set (the testbed recipe)")
    if args.derive_answers:
        derive(args.workload, args.inputs)
        return
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.inputs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
