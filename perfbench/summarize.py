#!/usr/bin/env python3
"""Summarise benchmark runs: python3 perfbench/summarize.py FILE...

Each FILE holds the stdout of one run.py invocation (its last line is
the result). Prints, per metric, the run count, median, quartiles and
spread = (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them. With --bounds, each
end-to-end metric's spread is compared against its BENCHMARK.json bound.
"""

import argparse
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs="+")
    parser.add_argument("--bounds", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(f)["end_to_end"]}
    values = {}
    units = {}
    incorrect = 0
    for path in args.files:
        with open(path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        incorrect += 0 if result["correct"] else 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("%d run(s), %d incorrect" % (len(args.files), incorrect))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        line = "%-36s n=%-3d median=%-12.6g q1=%-12.6g q3=%-12.6g " \
               "spread=%.4f %s" % (name, len(vals), med, q1, q3, spread,
                                   units[name])
        if args.bounds and name in bounds:
            line += "  bound=%.2f%s" % (
                bounds[name], "" if spread <= bounds[name] / 3
                else "  (above a third of the bound)")
        print(line)


if __name__ == "__main__":
    main()
