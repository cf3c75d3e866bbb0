#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare A.json B.json

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); every result
is also saved, with the host it ran on, under that directory's results/.

One workload: prints a readable report, then as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced). Exits 1 when an
output is wrong: a digest that differs from an earlier run of the same seed
or from a pinned one, a warm answer that differs from the set-up search, a
sweep replay whose winner differs from the search's.

--all runs every workload untraced and then traced with one seed and prints
each named figure plus the tracing overhead. --compare refuses to score
two results recorded on different hosts. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
HARNESS_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(targets):
    """Configures (once) and builds the harness; returns the build directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return out


def source_id():
    """The commit, or a hash of the sources when the checkout is not a repo."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(REPO_ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, REPO_ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def host_block(result):
    return {
        "nproc": os.cpu_count(),
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["build_type"],
        "commit": source_id(),
    }


def run_harness(out, workload, seed, seconds, trace):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", os.path.relpath(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=HARNESS_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: harness printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def check_digest(out, workload, seed, digest, errors):
    """Simulated-time outputs must repeat bit for bit: against the pinned
    digests, and against every earlier run of this seed in this build."""
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        pinned = json.load(f).get(workload, {})
    if str(seed) in pinned and pinned[str(seed)] != digest:
        errors.append(f"digest {digest} differs from the pinned {pinned[str(seed)]}")
    seen_dir = os.path.join(out, "digests")
    os.makedirs(seen_dir, exist_ok=True)
    path = os.path.join(seen_dir, f"{workload}-{seed}")
    if os.path.exists(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != digest:
            errors.append(f"digest {digest} differs from an earlier run's {earlier}")
    else:
        with open(path, "w") as f:
            f.write(digest + "\n")


def one_run(spec, out, workload, seed, seconds, trace):
    """Runs one workload; returns the saved result (harness output + host)."""
    result = run_harness(out, workload, seed, seconds, trace)
    errors = list(result["errors"])
    check_digest(out, workload, seed, result["digest"], errors)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, idle = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and trace:
            # A layer this workload does not run: reported as zero work.
            idle.append(m["name"])
            got = {"value": 0, "unit": m["unit"], "n": 0}
        if got is None:
            errors.append(f"metric {m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  host=host_block(result), errors=errors, idle_layers=idle,
                  scored=metrics)
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def describe(m):
    n = f" (n={m['n']})" if m.get("n") else ""
    return f"{m['value']:.6g} {m['unit']}{n}"


def print_report(result):
    host = result["host"]
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"host: nproc={host['nproc']} compiler={host['compiler']} "
          f"build={host['build_type']} commit={host['commit']}")
    print(f"digest: {result['digest']}")
    for name, m in sorted(result["figures"].items()):
        print(f"  {name:<34} {describe(m)}")
    for name, m in sorted(result["scored"].items()):
        print(f"  {name:<34} {describe(m)}")
    if result["idle_layers"]:
        print("  not run by this workload (reported as 0): " + ", ".join(result["idle_layers"]))
    for note in result["notes"]:
        print("  " + note)
    for e in result["errors"]:
        print("  ERROR: " + e)
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={not result['errors']}")


def contract_line(result):
    return json.dumps({
        "correct": not result["errors"],
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["scored"].items()},
    })


def run_all(spec, out, seed, seconds):
    ok = True
    for w in spec["workloads"]:
        untraced = one_run(spec, out, w["name"], seed, seconds, 0)
        traced = one_run(spec, out, w["name"], seed, seconds, 1)
        for r in (untraced, traced):
            print_report(r)
            ok = ok and not r["errors"]
        base = untraced["scored"]["p50_s"]["value"]
        with_trace = traced["scored"]["trace.p50_s"]["value"]
        print(f"tracing overhead on {w['name']}: p50_s {base:.6g} s untraced, "
              f"{with_trace:.6g} s traced ({(with_trace / base - 1) * 100:+.1f}%)\n")
    return 0 if ok else 1


def compare(paths, spec):
    a, b = (json.load(open(p)) for p in paths)
    same_host = {k: a["host"][k] for k in ("nproc", "compiler", "build_type")} == \
                {k: b["host"][k] for k in ("nproc", "compiler", "build_type")}
    if not same_host:
        print(f"not compared: recorded on different hosts ({a['host']} vs {b['host']}); "
              "re-record both on one host")
        return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("not compared: different workloads or trace modes")
        return 2
    better = {m["name"]: m.get("better") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{a['workload']}: {a['host']['commit']} -> {b['host']['commit']}")
    for name in sorted(a["scored"]):
        va, vb = a["scored"][name]["value"], b["scored"].get(name, {}).get("value")
        if vb is None:
            continue
        change = (vb / va - 1) * 100 if va else float("nan")
        print(f"  {name:<34} {va:.6g} -> {vb:.6g} ({change:+.1f}%, "
              f"{better.get(name) or 'no direction'} is better)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar="RESULT")
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(args.compare, spec)
    seconds = args.seconds or spec["run_seconds"]
    if args.self_test:
        out = build(["perfbench_selftest"])
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    out = build(["perfbench"])
    if args.all:
        return run_all(spec, out, args.seed, seconds)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    result = one_run(spec, out, args.workload, args.seed, seconds, args.trace)
    print_report(result)
    print(contract_line(result), flush=True)
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
