"""Compare two result documents written by ``bench/run.py``.

``python bench/compare.py A.json B.json`` prints one row per (workload,
end-to-end metric): both medians, the ratio B/A (its base is A), the
metric's bound and a verdict, then the per-layer self-time deltas of the
workloads that moved — the table a later perf PR pastes into its
description.

Members of A and B with the same sub-seed simulate the same work, so the
comparison is paired: the spread quoted is the distance between the
quartiles of the per-member ratios B_i/A_i, which leaves the
seed-to-seed variation of the work out.  Verdicts:

- ``worse``: the median got worse by more than the bound;
- ``better``: every member of B reads better than its twin in A;
- ``unresolved``: the spread of the paired ratios exceeds the bound, so
  the runs cannot tell "within" from "worse" (never reported as
  unchanged);
- ``within``: otherwise.

A row notes when the simulated output of a shared sub-seed changed
(``sim_digest``), which a speed-only change must never cause.  Exit code
1 if any row is ``worse``.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def paired_ratios(a, b, key):
    """B_i/A_i over the sub-seeds both documents measured."""
    a_values = dict(zip(a["sub_seeds"], a["samples"][key]))
    b_values = dict(zip(b["sub_seeds"], b["samples"][key]))
    return [b_values[s] / a_values[s] for s in a_values if s in b_values]


def spread(values):
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def compare(a, b, definition):
    """Rows for every (workload, bounded end-to-end metric) in both."""
    rows = []
    for name, a_doc in a["workloads"].items():
        b_doc = b["workloads"].get(name)
        if b_doc is None:
            continue
        a_digests = dict(zip(a_doc["sub_seeds"], a_doc["sim_digests"]))
        b_digests = dict(zip(b_doc["sub_seeds"], b_doc["sim_digests"]))
        same_output = all(
            b_digests[seed] == digest
            for seed, digest in a_digests.items()
            if seed in b_digests
        )
        for entry in definition["end_to_end"]:
            key = entry["name"]
            base = a_doc["end_to_end"][key]
            ratio = b_doc["end_to_end"][key] / base
            ratios = paired_ratios(a_doc, b_doc, key)
            lower_is_better = entry["better"] == "lower"
            worsening = ratio - 1.0 if lower_is_better else 1.0 - ratio
            if worsening > entry["bound"]:
                verdict = "worse"
            elif ratios and all((r < 1.0) == lower_is_better for r in ratios):
                verdict = "better"
            elif spread(ratios) > entry["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within"
            rows.append(
                {
                    "workload": name,
                    "metric": key,
                    "unit": entry["unit"],
                    "a": base,
                    "b": b_doc["end_to_end"][key],
                    "ratio": ratio,
                    "paired_spread": spread(ratios),
                    "pairs": len(ratios),
                    "bound": entry["bound"],
                    "verdict": verdict,
                    "same_output": same_output,
                }
            )
    return rows


def layer_deltas(a, b, rows):
    """Per-layer ``*.self_s`` of the workloads with a row that moved."""
    moved = sorted({row["workload"] for row in rows if row["verdict"] != "within"})
    lines = []
    for name in moved:
        a_layer = a["workloads"][name].get("per_layer")
        b_layer = b["workloads"][name].get("per_layer")
        if not a_layer or not b_layer:
            continue
        lines.append(f"-- {name}: per-layer self time, A -> B (host s, traced run)")
        for key in sorted(a_layer):
            if key.endswith(".self_s") and key in b_layer:
                lines.append(
                    f"  {key:32s} {a_layer[key]:10.4f} -> {b_layer[key]:10.4f}"
                    f"  ({b_layer[key] - a_layer[key]:+.4f})"
                )
    return lines


def render(rows):
    lines = [
        f"{'workload':15s} {'metric':18s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'spread':>7s} {'n':>3s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        note = "" if row["same_output"] else "  (simulated output changed)"
        lines.append(
            f"{row['workload']:15s} {row['metric']:18s} {row['a']:12.5g} "
            f"{row['b']:12.5g} {row['ratio']:7.3f} {row['paired_spread']:7.3f} "
            f"{row['pairs']:3d} {row['bound']:6.2f}  {row['verdict']}{note}"
        )
    return "\n".join(lines)


def agree(rows):
    """Two sets of runs of the same code: nothing ``worse``, and the
    simulated output of every shared sub-seed identical."""
    return all(row["verdict"] != "worse" and row["same_output"] for row in rows)


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: python bench/compare.py A.json B.json")
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    with open(
        os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8"
    ) as fh:
        definition = json.load(fh)
    a, b = docs
    rows = compare(a, b, definition)
    print(render(rows))
    for line in layer_deltas(a, b, rows):
        print(line)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
