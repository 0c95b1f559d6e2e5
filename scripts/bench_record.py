"""Benchmark a change against its parent and record both sides in a BENCH_<n>.json.

    python3 scripts/bench_record.py --parent ../parent --out BENCH_8.json \
        --workload desk-short:10 --workload desk-long:5 --workload full-long:5

--parent is a checkout of the parent commit (for example
`git clone . ../parent && git -C ../parent checkout HEAD~1`); the change is
the tree this script lives in. For each workload W:N it runs N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0

one in each tree, over the N seeds from --first-seed on (default
FIRST_SEED), alternating which tree goes first. Each run's last stdout line
is its result object and its `env` line the environment and config
fingerprint. The output file gives, per
workload and side, the median, quartiles and IQR of every end-to-end metric,
the failed/attempted operation counts, and, per metric, the pairs the change
won, the ratio of the medians and a verdict (see `verdict`). It also
records the env line, both git shas and the seeds. Run it on an otherwise
idle machine: the two sides of a pair share the host, not its load.

Absolute numbers do not carry across records (the host's speed drifts
between sessions), so each workload also gets a `trajectory`: per metric,
the product of the change_over_parent ratios of every earlier
BENCH_<n>.json at the repo root (numbered below the output file) and of
its own, that is, the change against the first recorded parent, chained
through paired ratios only. A record without the workload or metric
counts as 1.

--traced W:SEED adds one `--trace 1` run of workload W per side, whose
per-layer metrics go under `traced`, so a gain can be traced to the layer
that made it.

--script PATH runs `python3 PATH --tree TREE` once per side, with this
tree's copy of the script and TREE the side's checkout, and records the JSON
lines it prints under `scripts` (for example scripts/eval_batching.py).
"""
import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1801
# the run length every BENCH_<n>.json is recorded at, so records compare
SECONDS = 36
SIDES = ("parent", "change")
BENCH_NAME = re.compile(r"BENCH_(\d+)\.json")


def git_state(tree):
    """(sha, dirty) of the git checkout at tree; (None, None) if it is not one."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def run_once(tree, workload, seed, trace=0):
    """One benchmark run in tree; returns (env header, result object)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def pairs_won(parent, change, better):
    """How many pairs (parent[k], change[k]) the change won in the `better`
    direction; a tie counts for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change, strict=True))


def verdict(parent, change, better, bound):
    """The verdict on one metric from its paired values (parent[k] and
    change[k] ran as pair k), its `better` direction and its bound:

    - gain: the change won at least 9/10 of the pairs (ties count for
      neither) and its median is better than the parent's by more than the
      parent's IQR;
    - within_bound: the change's median is no worse than the parent's by
      more than the fraction bound.
    """
    sign = 1 if better == "lower" else -1  # sign * (change - parent) < 0: the change is better
    p, c = summary(parent), summary(change)
    gain = (10 * pairs_won(parent, change, better) >= 9 * len(parent)
            and sign * (p["median"] - c["median"]) > p["iqr"])
    within_bound = sign * (c["median"] - p["median"]) <= bound * p["median"]
    return {"gain": gain, "within_bound": within_bound}


def record(trees, workload, seeds, metrics):
    runs = {side: [] for side in SIDES}
    envs = {}
    for k, seed in enumerate(seeds):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            env, result = run_once(trees[side], workload, seed)
            envs[side] = env
            runs[side].append(result)
            print(f"{workload} seed {seed} {side}: step_ms_p50 "
                  f"{result['metrics']['step_ms_p50']['value']:.2f}", file=sys.stderr)
    out = {"seeds": list(seeds),
           "first": [SIDES[k % 2] for k in range(len(seeds))],
           "env": {side: {k: v for k, v in envs[side].items() if k != "seed"} for side in SIDES}}
    for side in SIDES:
        out[side] = {
            "attempted": sum(r["attempted"] for r in runs[side]),
            "failed": sum(r["failed"] for r in runs[side]),
            "correct_runs": sum(bool(r["correct"]) for r in runs[side]),
            "metrics": {name: summary([r["metrics"][name]["value"] for r in runs[side]])
                        for name in metrics},
        }
    out["change_wins"] = {}
    out["change_over_parent"] = {}
    out["verdict"] = {}
    for name, metric in metrics.items():
        parent, change = (out[side]["metrics"][name]["values"] for side in SIDES)
        out["change_wins"][name] = f"{pairs_won(parent, change, metric['better'])}/{len(seeds)}"
        out["change_over_parent"][name] = (out["change"]["metrics"][name]["median"]
                                           / out["parent"]["metrics"][name]["median"])
        out["verdict"][name] = verdict(parent, change, metric["better"], metric["bound"])
    return out


def earlier_records(out):
    """The BENCH_<n>.json documents at the repo root numbered below out's n, in order."""
    match = BENCH_NAME.fullmatch(Path(out).name)
    limit = int(match.group(1)) if match else math.inf
    numbered = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                if (m := BENCH_NAME.fullmatch(path.name))]
    return [json.loads(path.read_text()) for n, path in sorted(numbered) if n < limit]


def trajectory(records, workload, ratios):
    """Per metric: the product of the records' change_over_parent for workload and ratios."""
    earlier = [doc["workloads"].get(workload, {}).get("change_over_parent", {}) for doc in records]
    return {name: math.prod(r.get(name, 1.0) for r in earlier) * ratio
            for name, ratio in ratios.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True, help="output file, relative to the repo root")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    parser.add_argument("--traced", action="append", default=[], metavar="NAME:SEED",
                        help="one --trace 1 run of NAME per side")
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED,
                        help="seed of each workload's first pair; pair k runs seed + k")
    parser.add_argument("--script", action="append", default=[], type=Path,
                        help="a script run once per side as `PATH --tree TREE`")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    doc = {"command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
           "git": {side: dict(zip(("sha", "dirty"), git_state(trees[side]))) for side in SIDES},
           "workloads": {}}
    earlier = earlier_records(args.out)
    for item in args.workload:
        name, pairs = item.split(":")
        seeds = range(args.first_seed, args.first_seed + int(pairs))
        result = record(trees, name, seeds, metrics)
        result["trajectory"] = trajectory(earlier, name, result["change_over_parent"])
        doc["workloads"][name] = result
        (ROOT / args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for item in args.traced:
        name, seed = item.split(":")
        traced = doc.setdefault("traced", {})[name] = {"seed": int(seed)}
        for side in SIDES:
            _, result = run_once(trees[side], name, int(seed), trace=1)
            traced[side] = {key: value["value"] for key, value in result["metrics"].items()}
        (ROOT / args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for script in args.script:
        lines = doc.setdefault("scripts", {})[script.name] = {}
        for side in SIDES:
            out = subprocess.run([sys.executable, str(script.resolve()), "--tree", str(trees[side])],
                                 check=True, capture_output=True, text=True).stdout
            lines[side] = [json.loads(line) for line in out.splitlines() if line.strip()]
        (ROOT / args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
