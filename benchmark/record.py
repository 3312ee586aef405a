#!/usr/bin/env python3
"""Record a point of the benchmark trajectory: BENCH_<n>.json.

Runs every workload in fresh processes, one per seed, as many sets as
asked, plus one traced run per workload, and writes them with host
information into one file that `polybench compare` reads:

    python3 benchmark/record.py --out benchmark/BENCH_11.json
    polybench compare benchmark/BENCH_11.json:set1 benchmark/BENCH_11.json:set2

It then prints what the driver checks: for every end-to-end metric and
workload, the spread of each set (distance between the first and third
quartile of its values as a share of their median) and by how much the
second set's median is worse than the first's, against the bound.

`--render <BENCH file>` prints the recorded numbers as Markdown tables
instead (RESULTS.md is that output).

Run it from the repository root, on an otherwise idle machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "polybench", "Cargo.toml")


def build():
    """Build polybench in release mode; return the path of the binary."""
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST], check=True
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "polybench", "target"))
    return os.path.join(target, "release", "polybench")


def run(binary, workload, seed, seconds, trace, scratch):
    """One process; returns its run document."""
    out = os.path.join(scratch, "run.json")
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", out,
           "--trace-out", os.path.join(scratch, "trace.json")]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    with open(out) as f:
        return json.load(f)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


STORE_TIME = {"sqlpp": "sqlengine.exec_us.sqlpp", "sql": "sqlengine.exec_us.sql",
              "mongo": "docstore.aggregate_us", "cypher": "graphstore.query_us"}
SPECIFIC = ["read_p50_us", "read_p99_us", "write_p50_us", "ingest_rows_per_s", "recover_ms", "space_amp"]


def render(path):
    """The recorded numbers as Markdown."""
    with open(path) as f:
        doc = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    sets = sorted(k for k in doc if k.startswith("set"))
    host = doc["host"]
    print(f"# {os.path.basename(path)}\n")
    print(f"Host: nproc {host['nproc']}, {host['rustc']}, commit {host['commit']}, ROWS {host['rows']}; "
          f"{doc['run_seconds']} s measured per run; seeds {doc['seeds']} in every set. "
          "Medians over the runs of a set; spread = (Q3 - Q1) / median of the set.\n")

    def values(key, workload, name):
        return [r["metrics"][name]["value"] for r in doc[key]["runs"]
                if r["workload"] == workload and name in r["metrics"]]

    for w in [w["name"] for w in declared["workloads"]]:
        failed = sum(r["failed"] for k in sets for r in doc[k]["runs"] if r["workload"] == w)
        attempted = sum(r["attempted"] for k in sets for r in doc[k]["runs"] if r["workload"] == w)
        print(f"## {w}\n\n{failed} failed of {attempted} attempted.\n")
        print("| metric | unit | bound | " + " | ".join(f"{k} median | {k} spread" for k in sets) + " | last worse by |")
        print("|---|---|---|" + "---|---|" * len(sets) + "---|")
        rows = [(m["name"], m["unit"], m["better"], f"{m['bound']:.0%}") for m in declared["end_to_end"]]
        layer = {m["name"]: m for m in declared["per_layer"]}
        rows += [(n, layer[n]["unit"], layer[n]["better"], "compare") for n in SPECIFIC if values(sets[0], w, n)]
        for name, unit, better, bound in rows:
            per_set = [values(k, w, name) for k in sets]
            first, last = statistics.median(per_set[0]), statistics.median(per_set[-1])
            worse = (last - first) / first if better == "lower" else (first - last) / first
            cells = " | ".join(f"{statistics.median(v):.6g} | {spread(v):.2%}" for v in per_set)
            print(f"| `{name}` | {unit} | {bound} | {cells} | {worse:+.2%} |")
        traced = next(r for r in doc["traced"]["runs"] if r["workload"] == w)["metrics"]
        print(f"\nTraced run (seed {doc['seeds'][0]}), `bench.trace_overhead_ratio` "
              f"{traced['bench.trace_overhead_ratio']['value']:.3f}:\n")
        if w == "durable_ingest":
            # A round is a whole cycle there; the layer is `storage`.
            print("| metric | value |\n|---|---|")
            for name in sorted(n for n in traced if n.startswith("storage.")):
                print(f"| `{name}` | {traced[name]['value']:.6g} |")
            print()
            continue
        print("| personality | round | core.rewrite | core.dispatch | core.self | store's own execution | store share of the round |")
        print("|---|---|---|---|---|---|---|")
        for lang in ["sqlpp", "sql", "mongo", "cypher"]:
            def us(name):
                return traced.get(name, {}).get("value")
            round_us = traced[f"round_ms.{lang}"]["value"] * 1e3
            store = us(STORE_TIME[lang])
            cells = [f"{round_us:.1f} us"] + [
                "-" if us(f"core.{part}_us.{lang}") is None else f"{us(f'core.{part}_us.{lang}'):.1f} us"
                for part in ("rewrite", "dispatch", "self")]
            cells += ["-", "-"] if store is None else [f"{store:.1f} us", f"{store / round_us:.1%}"]
            print(f"| {lang} | " + " | ".join(cells) + " |")
        print()


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--render":
        return render(sys.argv[2])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--bin", help="a polybench binary built elsewhere (default: cargo build)")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    binary = args.bin or build()

    doc = {}
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(1, args.sets + 1):
            runs = []
            for workload in workloads:
                for seed in seeds:
                    runs.append(run(binary, workload, seed, seconds, False, scratch))
                    print(f"set{i} {workload} seed {seed}", flush=True)
            doc[f"set{i}"] = {"runs": runs}
        doc["traced"] = {"runs": [run(binary, w, seeds[0], seconds, True, scratch) for w in workloads]}
    doc = {"host": doc["set1"]["runs"][0]["host"], "run_seconds": seconds, "seeds": seeds, **doc}
    with open(args.out, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")

    print(f"\n{'workload':15} {'metric':16} {'bound':>6} " +
          " ".join(f"{'spread' + str(i):>8}" for i in range(1, args.sets + 1)) + "  last set worse by")
    for workload in workloads:
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in doc[f"set{i}"]["runs"] if r["workload"] == workload]
                       for i in range(1, args.sets + 1)]
            spreads = [spread(v) for v in per_set]
            first, last = statistics.median(per_set[0]), statistics.median(per_set[-1])
            worse = (last - first) / first if metric["better"] == "lower" else (first - last) / first
            flag = "" if max(spreads + [worse]) <= bound else "  <-- beyond the bound"
            print(f"{workload:15} {name:16} {bound:6.0%} " + " ".join(f"{s:8.2%}" for s in spreads) +
                  f"  {worse:+8.2%}{flag}")


if __name__ == "__main__":
    main()
