"""Paired-comparison analytics over sweep stores.

The paper's headline claims are pairwise — "Bullet' beats its
alternatives by X% at the median under dynamic conditions" — and the
sweep engine already produces everything needed to make such claims
honestly: per-cell records keyed by (system, scenario-with-params,
topology, scale, seed).  Two systems swept under the *same seed* share
their random numbers (topology draw, scenario schedule, protocol
jitter), so their per-seed metric deltas are **paired samples**: the
between-seed variance cancels, and the Student-t interval over the
deltas is far tighter than any group-vs-group comparison at the small
``n_seeds`` sweeps use.

:func:`compare_store` turns a :class:`~repro.harness.sweep.StoreView`
into a league table per *condition* (everything but system and seed):
for every competitor vs the baseline, the paired median/p90/worst
deltas, their confidence intervals, and win rates.  The unfinished-cell
policy is :class:`~repro.harness.sweep.StoreView`'s: a pair
contributes only when **both** runs finished, and ``n_pairs`` vs
``pairs`` make the censoring visible.  Output is a plain-data document
(:func:`render_json`) or a markdown league table
(:func:`render_markdown`); both are bit-stable — derived only from
record *values*, never record order, worker count, or wall clock.

Whether a change moved behaviour at all is not this module's question:
``repro sweep --check-golden`` holds whole records, work counters
included, to a recorded store.

CLI::

    python -m repro compare results.jsonl --baseline bullet_prime
    python -m repro compare results.jsonl --format json
"""

import json

from repro.common import stats
from repro.harness.report import render_markdown_table
from repro.harness.sweep import StoreView, record_cell

__all__ = [
    "METRICS",
    "compare_paths",
    "compare_store",
    "render_json",
    "render_markdown",
]

#: Completion metrics compared, in report order.
METRICS = ("median", "p90", "worst")


def _index_store(store):
    """``{condition: {system: {seed: summary}}}`` over a store, a
    *system* being ``SweepCell.system_key()`` — the name plus the knobs
    set on it, so knob variants of one system rank against each other.

    Built from the structured cell fields (never by parsing keys), and
    consumed in sorted order everywhere, so the report is identical for
    any record order — shuffled stores, any worker count.
    """
    index = {}
    for record in store.records:
        cell = record_cell(record)
        by_system = index.setdefault(cell.condition_key(), {})
        by_seed = by_system.setdefault(cell.system_key(), {})
        if cell.seed in by_seed:
            raise ValueError(
                f"duplicate cell {record['key']!r} in the store(s) — "
                "the same sweep written twice?"
            )
        by_seed[cell.seed] = record["summary"]
    return index


def _paired_metric(sys_vals, base_vals, confidence):
    """Paired-delta statistics (competitor minus baseline) per metric."""
    deltas = stats.paired_deltas(sys_vals, base_vals)
    ci_low, ci_high = stats.confidence_interval(deltas, confidence=confidence)
    wins, ties, losses = stats.sign_counts(deltas)
    mean_delta = sum(deltas) / len(deltas)
    base_mean = sum(base_vals) / len(base_vals)
    return {
        "n": len(deltas),
        "mean_delta": mean_delta,
        "median_delta": stats.Cdf(deltas).median,
        "worst_delta": max(deltas),
        "ci_low": ci_low,
        "ci_high": ci_high,
        # Mean delta as a fraction of the baseline mean: -0.25 means
        # the competitor is 25% faster.  None when the baseline mean is
        # zero (degenerate), never a fabricated 0.
        "pct_of_baseline": (mean_delta / base_mean if base_mean != 0 else None),
        "wins": wins,
        "ties": ties,
        "losses": losses,
        # Fraction of seeds the *competitor* beats the baseline
        # (deltas are competitor - baseline; lower is better).
        "win_rate": stats.win_rate(deltas),
    }


def _row_rank(row):
    """Sort key ranking competitors: best (most negative) mean median
    delta first, rows with no finished pairs last, name-tiebroken."""
    primary = row["metrics"].get("median") if row["metrics"] else None
    if primary is None:
        return (1, 0.0, row["system"])
    return (0, primary["mean_delta"], row["system"])


def compare_store(store, baseline=None, metrics=METRICS, confidence=0.95):
    """Paired comparison of every system in ``store`` against ``baseline``.

    Returns a plain-data report document.  Per condition (scenario with
    params x topology x scale), each competitor sharing seeds with the
    baseline gets one row: paired deltas (competitor minus baseline —
    negative means the competitor finished *faster*) for each metric in
    ``metrics``, over the seeds where **both** runs finished (the
    unfinished-cell policy; ``pairs`` counts common seeds,
    ``n_pairs`` the finished ones that entered the statistics).
    ``baseline=None`` picks the alphabetically first system.
    """
    if isinstance(store, (str, bytes)):
        raise TypeError(
            "compare_store takes a StoreView, not a path — use "
            "StoreView.from_jsonl(path) first"
        )
    index = _index_store(store)
    systems = sorted({s for by_system in index.values() for s in by_system})
    if baseline is None:
        baseline = systems[0]
    if baseline not in systems:
        raise ValueError(
            f"baseline {baseline!r} has no cells in the store; "
            f"present: {', '.join(systems)}"
        )
    conditions = []
    for condition in sorted(index):
        by_system = index[condition]
        base_by_seed = by_system.get(baseline)
        if not base_by_seed:
            # No baseline data under this condition: nothing to pair.
            continue
        rows = []
        for system in sorted(by_system):
            if system == baseline:
                continue
            sys_by_seed = by_system[system]
            common = sorted(set(base_by_seed) & set(sys_by_seed))
            if not common:
                continue
            finished = [
                seed
                for seed in common
                if base_by_seed[seed]["finished"] and sys_by_seed[seed]["finished"]
            ]
            row = {
                "system": system,
                "pairs": len(common),
                "n_pairs": len(finished),
                "seeds": finished,
                "metrics": {},
            }
            for metric in metrics:
                if finished:
                    row["metrics"][metric] = _paired_metric(
                        [sys_by_seed[s][metric] for s in finished],
                        [base_by_seed[s][metric] for s in finished],
                        confidence,
                    )
                else:
                    row["metrics"][metric] = None
            rows.append(row)
        if not rows:
            continue
        rows.sort(key=_row_rank)
        conditions.append(
            {
                "condition": condition,
                "baseline_seeds": sorted(base_by_seed),
                "baseline_n_finished": sum(
                    1 for s in base_by_seed.values() if s["finished"]
                ),
                "rows": rows,
            }
        )
    return {
        "baseline": baseline,
        "confidence": confidence,
        "metrics": list(metrics),
        "systems": systems,
        "conditions": conditions,
    }


def _fmt_delta(value):
    return f"{value:+.2f}"


def _fmt_metric_cells(m):
    """The four markdown cells describing one metric's paired stats."""
    if m is None:
        return ["n/a", "n/a", "n/a", "n/a"]
    ci = f"[{_fmt_delta(m['ci_low'])}, {_fmt_delta(m['ci_high'])}]"
    pct = (
        "n/a"
        if m["pct_of_baseline"] is None
        else f"{m['pct_of_baseline'] * 100:+.1f}%"
    )
    win = f"{m['win_rate'] * 100:.0f}%"
    return [_fmt_delta(m["mean_delta"]), ci, pct, win]


def render_markdown(doc):
    """The league tables as markdown, one section per condition.

    Deltas are competitor minus baseline in simulated seconds: negative
    = competitor faster.  Byte-stable for a given report document.
    """
    lines = [
        f"# Paired comparison vs `{doc['baseline']}`",
        "",
        f"{round(doc['confidence'] * 100)}% paired Student-t confidence "
        "intervals over per-seed deltas (competitor − baseline; negative "
        "= competitor faster).  Pairs where either run did not finish "
        "are excluded (unfinished-cell policy); `pairs` shows "
        "finished/common seed counts.",
    ]
    if not doc["conditions"]:
        lines += ["", "*No condition has baseline data to pair against.*"]
        return "\n".join(lines)
    for cond in doc["conditions"]:
        headers = ["system", "pairs", "Δmedian", "95% CI", "Δ%", "win"]
        for metric in doc["metrics"]:
            if metric == "median":
                continue
            headers.append(f"Δ{metric}")
        rows = []
        for row in cond["rows"]:
            cells = [f"`{row['system']}`", f"{row['n_pairs']}/{row['pairs']}"]
            cells.extend(_fmt_metric_cells(row["metrics"].get("median")))
            for metric in doc["metrics"]:
                if metric == "median":
                    continue
                m = row["metrics"].get(metric)
                cells.append("n/a" if m is None else _fmt_delta(m["mean_delta"]))
            rows.append(cells)
        lines += [
            "",
            f"## {cond['condition']}",
            "",
            f"baseline finished {cond['baseline_n_finished']}/"
            f"{len(cond['baseline_seeds'])} seeds",
            "",
            render_markdown_table(headers, rows),
        ]
    return "\n".join(lines)


def render_json(doc):
    """The report document as deterministic (sorted-keys) JSON."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def compare_paths(paths, **kwargs):
    """Convenience: load one or more JSONL stores and compare them.

    Multiple stores concatenate — e.g. two sweeps of different systems
    over the same grid pair up seed by seed.
    """
    records = []
    for path in paths:
        records.extend(StoreView.from_jsonl(path).records)
    return compare_store(StoreView(records), **kwargs)
