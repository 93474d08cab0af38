"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload construct --seeds 1-10 [--trace 1] [--json FILE]

For each metric: median, first and third quartile (``statistics.quantiles``,
n=4), the spread (Q3 - Q1) / median, and the sample count.  A perf change
runs this on the parent and on the change with the same seeds.
"""

import argparse
import json
import os
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(results):
    metrics = {}
    for result in results:
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
    out = {}
    for name, (values, unit) in metrics.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "unit": unit, "runs": len(values)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="append the summary to this JSON-lines file")
    args = parser.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="ascii") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    first, _, last = args.seeds.partition("-")
    results = []
    for seed in range(int(first), int(last or first) + 1):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True, timeout=900,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    summary = summarise(results)
    for name, s in summary.items():
        print(f"{name:24s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  runs {s['runs']}")
    if args.json:
        with open(args.json, "a", encoding="ascii") as handle:
            handle.write(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                     "seconds": seconds, "trace": args.trace,
                                     "metrics": summary}) + "\n")


if __name__ == "__main__":
    main()
