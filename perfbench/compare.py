#!/usr/bin/env python3
"""Compare two saved benchmark outputs of the same workload and seed.

    python3 perfbench/compare.py before.txt after.txt

Each file is the standard output of one benchmark run. The script
refuses (exit 2) to compare runs whose host stamps differ -- CPU model,
nproc or pool threads -- or that measured different inputs (workload,
seed, trace mode). Otherwise it prints every metric side by side and
whether the deterministic outputs (the record digest) are identical.
"""

import json
import sys

HOST_KEYS = ("cpu", "nproc", "threads")
INPUT_KEYS = ("workload", "seed", "trace")


def load(path):
    stamp, result = None, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("stamp "):
                stamp = json.loads(line[len("stamp "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if stamp is None or result is None:
        sys.exit(f"{path}: no stamp or result line; is it a benchmark output?")
    return stamp, result


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (sa, ra), (sb, rb) = load(sys.argv[1]), load(sys.argv[2])
    for keys, what in ((HOST_KEYS, "hosts"), (INPUT_KEYS, "inputs")):
        diff = [k for k in keys if sa.get(k) != sb.get(k)]
        if diff:
            for k in diff:
                print(f"{k}: {sa.get(k)!r} vs {sb.get(k)!r}", file=sys.stderr)
            print(f"refusing to compare results from different {what}", file=sys.stderr)
            sys.exit(2)
    print(f"{sa['workload']} seed {sa['seed']} on {sa['cpu']} ({sa['threads']} threads)")
    print(f"commits: {sa['commit']} -> {sb['commit']}")
    same = sa["digest"] == sb["digest"]
    print(f"outputs: {'identical' if same else 'DIFFER'} ({sa['digest']} vs {sb['digest']})")
    print(f"correct: {ra['correct']} -> {rb['correct']}")
    ma, mb = ra["metrics"], rb["metrics"]
    for name in ma:
        a, b = ma[name]["value"], mb.get(name, {}).get("value")
        if b is None:
            print(f"{name:32} {a:>16.6g} {'missing':>16}")
            continue
        change = f"{(b - a) / abs(a) * 100:+.1f}%" if a else ""
        print(f"{name:32} {a:>16.6g} {b:>16.6g} {change:>9} {ma[name]['unit']}")


if __name__ == "__main__":
    main()
