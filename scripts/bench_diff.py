#!/usr/bin/env python3
"""Report wall-clock ratios between two BENCH_<timestamp>.json artifacts.

    python3 scripts/bench_diff.py OLD.json NEW.json

Prints two tables: per bench binary, the `elapsed_s` of each run and
their ratio; per google-benchmark micro case (matched by name), the
`real_time` of each run and their ratio. A ratio is NEW / OLD, so below
1.0 means NEW is faster. Rows present in only one file show "-" on the
other side.

This is a report, not a gate: wall-clock numbers move with the host, the
build type and the load, and the two files may come from different
machines (the header prints both hosts and CPU counts). It always exits
0, including when a file is missing or unreadable; the deterministic
counters are gated by scripts/check_bench_gate.py instead.
"""

import json
import sys


def load(path):
    """Returns the parsed artifact, or None (with a note) when unreadable."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: cannot read {path}: {e}")
        return None
    if not isinstance(doc, dict):
        print(f"bench_diff: {path} is not a BENCH artifact")
        return None
    return doc


def bench_times(doc):
    """bench name -> elapsed wall-clock seconds, for benches that ran."""
    out = {}
    for name, res in (doc.get("results") or {}).items():
        if isinstance(res, dict) and isinstance(res.get("elapsed_s"),
                                                (int, float)):
            out[name] = float(res["elapsed_s"])
    return out


def micro_times(doc):
    """micro case name -> (real_time, time_unit), iteration runs only."""
    micro = doc.get("micro")
    if not isinstance(micro, dict):
        return {}
    out = {}
    for b in micro.get("benchmarks") or []:
        if b.get("run_type", "iteration") != "iteration":
            continue
        if isinstance(b.get("real_time"), (int, float)):
            out[b["name"]] = (float(b["real_time"]), b.get("time_unit", ""))
    return out


def fmt(v):
    return "-" if v is None else f"{v:.4g}"


def ratio(old, new):
    if old is None or new is None or old <= 0:
        return "-"
    return f"{new / old:.3f}"


def table(title, unit_of, old, new):
    names = sorted(set(old) | set(new))
    print(f"\n{title}")
    if not names:
        print("  (none in either file)")
        return
    width = max(len(n) for n in names)
    print(f"  {'name':<{width}}  {'old':>10}  {'new':>10}  {'new/old':>8}  unit")
    for n in names:
        o, u = old.get(n), new.get(n)
        print(f"  {n:<{width}}  {fmt(o):>10}  {fmt(u):>10}  "
              f"{ratio(o, u):>8}  {unit_of(n)}")


def describe(path, doc):
    meta = doc.get("meta") or {}
    return (f"{path}: rev {str(meta.get('git_rev', '?'))[:12]}, "
            f"label {meta.get('label', '') or '-'}, "
            f"host {meta.get('host', '?')} ({meta.get('cpus', '?')} cpus), "
            f"smoke={meta.get('smoke', '?')}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip())
        return 0
    old_doc, new_doc = load(argv[1]), load(argv[2])
    if old_doc is None or new_doc is None:
        return 0
    print("old " + describe(argv[1], old_doc))
    print("new " + describe(argv[2], new_doc))

    table("bench wall clock (elapsed_s)", lambda _: "s",
          bench_times(old_doc), bench_times(new_doc))

    old_micro, new_micro = micro_times(old_doc), micro_times(new_doc)
    units = {n: u for n, (_, u) in {**old_micro, **new_micro}.items()}
    table("micro wall clock (real_time)", lambda n: units.get(n, ""),
          {n: t for n, (t, _) in old_micro.items()},
          {n: t for n, (t, _) in new_micro.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
