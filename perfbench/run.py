#!/usr/bin/env python3
"""Benchmark of the reproduction pipeline.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (release, offline) from
source, then reproduces a batch of simulation seeds derived from --seed
(seed*batch .. seed*batch+batch-1), one child process per reproduction,
cycling through the batch until every seed ran and --seconds have passed.
One process per reproduction keeps each one's set-up time, CPU time and
peak resident set its own. A batch of seeds, not one, because the amount
of simulated activity differs from seed to seed (the wall time of one
capture reproduction by 13 %); the batch mean is steady enough to compare
builds.

Every rendered artifact is one operation, judged against the pinned
digests (or the committed results/ for the paper run that made them) and
against the other runs of the same seed. Human-readable lines go first;
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
seed runs traced and the first two also untraced, and the metrics are the
per-layer ones plus the tracing overhead. See README.md.

    --batch 1 --scale 0.1 --seed 2012   the paper run of the committed results/
    --pin                               write the batch's digests into pinned/
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("paper", "paper-lossy", "trace-replay")
# Population scale of every workload: about 200,000 flow records through
# five captures, roughly 3 s of pipeline on two cores.
SCALE = 0.02
# Reproductions per run. Capture cost follows the simulated segments
# (17 % coefficient of variation between seeds), replay cost the records
# (11 %); these sizes keep the run-to-run spread of every end-to-end metric
# under a third of its bound (README.md, "Steadiness").
BATCH = {"paper": 12, "paper-lossy": 12, "trace-replay": 6}
# Seeds of a traced run that also run untraced, for the tracing overhead.
UNTRACED_IN_TRACE = 2
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "..", "results")
LOG_FILES = ("campus1.jsonl", "campus2.jsonl", "home1.jsonl", "home2.jsonl", "campus1_v14.jsonl")
PASSING = ("ok", "unpinned")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def build():
    """Build the benchmark binary from source; returns its path."""
    if not os.path.isdir(os.path.join(HERE, "..", "crates")):
        fail("the repository's crates/ must sit next to perfbench/")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is ours.
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def child(cmd):
    """Run one child process to completion; returns its last stdout line as JSON."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"`perfbench {cmd[1]}` exited with {done.returncode}")
    return json.loads(lines[-1])


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def log_dir(seed, scale):
    return os.path.join(WORK, "logs", f"seed{seed}-scale{scale!r}")


def ensure_logs(binary, seeds, scale):
    """The five anonymised flow logs of each seed, generated by the program
    under test before any measured run, and reused while their digests
    hold. Returns {seed: records the capture produced}."""
    keep = {os.path.basename(log_dir(s, scale)) for s in seeds}
    root = os.path.join(WORK, "logs")
    # Only the current batch stays on disk.
    for name in os.listdir(root) if os.path.isdir(root) else []:
        if name not in keep:
            shutil.rmtree(os.path.join(root, name))
    program = sha256_file(binary)
    records = {}
    for seed in seeds:
        d = log_dir(seed, scale)
        manifest = os.path.join(d, "manifest.json")
        identity = {"seed": seed, "scale": scale, "program": program}
        try:
            with open(manifest) as f:
                m = json.load(f)
            if all(m[k] == v for k, v in identity.items()) and all(
                sha256_file(os.path.join(d, n)) == m["files"][n] for n in LOG_FILES
            ):
                records[seed] = m["records"]
                continue
            log(f"perfbench: flow logs of seed {seed} stale or damaged; regenerating")
        except (OSError, ValueError, KeyError):
            pass
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        log(f"perfbench: generating flow logs for seed {seed}, scale {scale}")
        out = child([binary, "gen", "--seed", str(seed), "--scale", repr(scale), "--dir", d])
        m = dict(identity, records=out["records"], files={n: sha256_file(os.path.join(d, n)) for n in LOG_FILES})
        with open(manifest + ".tmp", "w") as f:
            json.dump(m, f)
        os.replace(manifest + ".tmp", manifest)
        records[seed] = m["records"]
    return records


def pin_file(workload):
    return os.path.join(HERE, "pinned", f"{workload}.txt")


def schedule(seeds, trace):
    """One pass over the batch: (seed, traced) per child run. The first
    run is always untraced, so its per-layer metrics name the counts."""
    if not trace:
        return [(s, False) for s in seeds]
    out = []
    for i, s in enumerate(seeds):
        if i < UNTRACED_IN_TRACE:
            out.append((s, False))
        out.append((s, True))
    return out


def run_reps(binary, args, seeds):
    cmd = [binary, "rep", "--workload", args.workload, "--scale", repr(args.scale),
           "--pins", pin_file(args.workload), "--results", RESULTS]
    spans = os.path.join(WORK, f"spans-{args.workload}.jsonl")
    todo = schedule(seeds, args.trace == 1)
    reps = []
    start = time.monotonic()
    while len(reps) < len(todo) or time.monotonic() - start < args.seconds:
        seed, traced = todo[len(reps) % len(todo)]
        extra = ["--seed", str(seed)]
        if args.workload == "trace-replay":
            extra += ["--logs", log_dir(seed, args.scale)]
        if traced:
            extra += ["--trace", "--spans", spans]
        reps.append(child(cmd + extra))
    return reps, spans


def by_seed(reps):
    out = {}
    for r in reps:
        out.setdefault(r["seed"], []).append(r)
    return out


def judge_reps(reps):
    """Operations over all runs: (attempted, failed, problems). An artifact
    fails in a run when its reference verdict fails or when its bytes differ
    from the first run of the same seed; per-layer counts that differ
    between runs of one seed are problems."""
    attempted = failed = 0
    problems = []
    count_keys = list(reps[0]["per_layer"])
    for seed, runs in by_seed(reps).items():
        first = runs[0]
        for r in runs:
            names = set(first["artifacts"]) | set(r["artifacts"])
            attempted += max(len(names), r["attempted"])
            bad = {n for n, (_, verdict) in r["artifacts"].items() if verdict not in PASSING}
            bad |= {n for n in names if r["artifacts"].get(n, [None])[0] != first["artifacts"].get(n, [None])[0]}
            failed += len(bad)
            for k in count_keys:
                a, b = first["per_layer"][k]["value"], r["per_layer"][k]["value"]
                if a != b:
                    problems.append(f"seed {seed}: {k} differs between runs: {a} vs {b}")
    return attempted, failed, problems


def workload_checks(workload, rep, log_records):
    """Each workload must exercise the layer it was chosen for."""
    v = {k: m["value"] for k, m in rep["per_layer"].items()}
    seed = rep["seed"]
    problems = []
    if v["core.records"] <= 0:
        problems.append(f"seed {seed}: no records reached the summary")
    if workload == "trace-replay":
        if v["core.records"] != log_records:
            problems.append(f"seed {seed}: replayed {v['core.records']} records, capture produced {log_records}")
        if v["workload.records"] != 0:
            problems.append(f"seed {seed}: trace-replay simulated flows")
    elif v["workload.records"] <= 0:
        problems.append(f"seed {seed}: capture produced no records")
    if workload == "paper-lossy" and v["dropbox.sync_retries"] <= 0:
        problems.append(f"seed {seed}: lossy plan caused no sync retries")
    if workload == "paper" and v["dropbox.sync_retries"] != 0:
        problems.append(f"seed {seed}: fault-free capture retried")
    return problems


def write_pins(workload, scale, seed, artifacts):
    """Record one run's digests as a row under the pin file's column line.
    Rows pinned under a different artifact list are dropped."""
    path = pin_file(workload)
    names = sorted(artifacts)
    rows = {}
    if os.path.exists(path):
        with open(path) as f:
            lines = [line.split() for line in f if line.strip() and not line.startswith("#")]
        if lines and lines[0][0] == "artifacts" and lines[0][1:] == names:
            rows = {(float(p[0]), int(p[1])): p for p in lines[1:]}
    rows[(scale, seed)] = [repr(scale), str(seed)] + [artifacts[n][0] for n in names]
    with open(path + ".tmp", "w") as f:
        f.write(f"# sha256[:16] of every artifact of workload {workload}: one row per (scale, seed)\n")
        f.write(" ".join(["artifacts"] + names) + "\n")
        for key in sorted(rows):
            f.write(" ".join(rows[key]) + "\n")
    os.replace(path + ".tmp", path)


def batch_metrics(reps, section, keys):
    """Per key: the mean over seeds of each seed's median."""
    seeds = by_seed(reps)
    return {k: sum(stats.median([r[section][k]["value"] for r in runs]) for runs in seeds.values()) / len(seeds)
            for k in keys}


def end_to_end(plain):
    """Batch end-to-end metrics: times and memory are means over the seeds
    of per-seed medians, records_per_s is all records over all wall time,
    and setup_s is the median over every run."""
    keys = ("wall_s", "cpu_s", "peak_rss_mb")
    m = batch_metrics(plain, "end_to_end", keys)
    seeds = by_seed(plain)
    records = sum(runs[0]["per_layer"]["core.records"]["value"] for runs in seeds.values())
    wall = m["wall_s"] * len(seeds)
    setup = stats.median([r["end_to_end"]["setup_s"]["value"] for r in plain])
    units = {k: v["unit"] for k, v in plain[0]["end_to_end"].items()}
    values = dict(m, records_per_s=records / wall, setup_s=setup)
    return {k: {"value": values[k], "unit": units[k]} for k in plain[0]["end_to_end"]}


def describe(name, metric, values):
    """One human line: the metric, then the spread of its per-run values."""
    line = f"{name:<34} {metric['value']:<14.6g} {metric['unit']:<6}"
    if values:
        line += f" runs={len(values)} min={min(values):.6g} median={stats.median(values):.6g} max={max(values):.6g}"
        high = stats.high_percentile(values)
        if high:
            line += f" p{high[0]:g}={high[1]:.6g}"
    print(line)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=SCALE)
    p.add_argument("--batch", type=int, help="reproductions per run (default: per workload)")
    p.add_argument("--pin", action="store_true")
    args = p.parse_args()
    args.batch = args.batch or BATCH[args.workload]
    if args.seed < 0 or args.batch < 1:
        fail("--seed must be >= 0 and --batch >= 1")

    binary = build()
    os.makedirs(WORK, exist_ok=True)
    seeds = [args.seed] if args.batch == 1 else [args.seed * args.batch + i for i in range(args.batch)]
    log_records = ensure_logs(binary, seeds, args.scale) if args.workload == "trace-replay" else {}
    reps, spans = run_reps(binary, args, seeds)

    attempted, failed, problems = judge_reps(reps)
    runs = by_seed(reps)
    for seed, seed_runs in runs.items():
        problems += workload_checks(args.workload, seed_runs[0], log_records.get(seed))
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    combined = hashlib.sha256(
        "".join(f"{s} {n}:{d}\n" for s in seeds for n, (d, _) in sorted(runs[s][0]["artifacts"].items())).encode()
    ).hexdigest()[:16]

    print(f"workload {args.workload}  seed {args.seed}  simulation seeds {seeds[0]}..{seeds[-1]}  "
          f"scale {args.scale!r}  jobs {reps[0]['per_layer']['par.jobs']['value']:g}  "
          f"runs {len(plain)} untraced + {len(traced)} traced")
    print(f"reference {', '.join(sorted({r['reference'] for r in reps}))}  artifacts digest {combined}")
    if args.trace == 0:
        metrics = end_to_end(plain)
        source, section = plain, "end_to_end"
    else:
        keys = list(traced[0]["per_layer"])
        units = {k: m["unit"] for k, m in traced[0]["per_layer"].items()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in batch_metrics(traced, "per_layer", keys).items()}
        both = [s for s in seeds if any(not r["traced"] for r in runs[s]) and any(r["traced"] for r in runs[s])]
        overhead = sum(
            stats.median([r["end_to_end"]["wall_s"]["value"] for r in runs[s] if r["traced"]])
            - stats.median([r["end_to_end"]["wall_s"]["value"] for r in runs[s] if not r["traced"]])
            for s in both
        ) / len(both)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        source, section = traced, "per_layer"
    for k, m in metrics.items():
        describe(k, m, [r[section][k]["value"] for r in source if k in r[section]])
    if args.trace == 1:
        print(f"spans of the last traced run: {os.path.relpath(spans)}")
    print(f"{'artifacts':<34} {attempted:<14} count")
    print(f"{'artifacts_failed':<34} {failed:<14} count")
    for msg in problems:
        print(f"problem: {msg}")
    for seed in seeds:
        for n, (_, verdict) in sorted(runs[seed][0]["artifacts"].items()):
            if verdict not in PASSING:
                print(f"seed {seed}: artifact {n}: {verdict}")

    if args.pin:
        if failed or problems:
            fail("not pinning a failing run")
        for seed in seeds:
            write_pins(args.workload, args.scale, seed, runs[seed][0]["artifacts"])
        log(f"perfbench: pinned seeds {seeds[0]}..{seeds[-1]} in {os.path.relpath(pin_file(args.workload))}")

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
