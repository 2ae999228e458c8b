"""Command-line entry point.

Five families of commands:

Figures — reproduce any of the paper's figures::

    python -m repro fig4
    python -m repro fig5 --nodes 40 --blocks 480 --seed 3
    python -m repro all --nodes 20 --blocks 128

Registry-driven runs — any system under any scenario::

    python -m repro run --system bulletprime --scenario oscillate \\
        --nodes 40 --blocks 320 --json
    python -m repro run --system bittorrent --scenario churn \\
        --topology planetlab
    python -m repro run --system bullet_prime --scenario gilbert_elliott \\
        --flow-model bbr
    python -m repro run --system bullet_prime --scenario crash \\
        --nodes 20 --blocks 64
    python -m repro run --system bullet_prime --scenario chaos \\
        --nodes 20 --blocks 64 --json

Parameter sweeps — grids over systems x scenarios x topologies (each
with its knobs) x scales x seeds, executed across a worker pool::

    python -m repro sweep --systems bullet_prime,bittorrent \\
        --scenarios none,churn --seeds 0:4 --workers 4 --out results.jsonl
    python -m repro sweep --spec examples/sweep_spec.json --workers 2
    python -m repro sweep --golden-matrix --workers 4 \\
        --check-golden tests/data/golden_matrix.jsonl

``--check-golden`` holds a sweep to a recorded store: every record the
store holds must come out under the same cell key, equal field for
field — summary and work counters alike.  The golden store is what
``sweep --golden-matrix --workers 1 --quiet --out`` writes; that one
command re-records it.

Paired-comparison analytics — turn sweep stores into conclusions
("system A beats system B by X% under scenario S, CI [lo, hi]")::

    python -m repro compare results.jsonl --baseline bullet_prime
    python -m repro compare results.jsonl --format json --out league.json

Discovery — enumerate everything registered::

    python -m repro list
    python -m repro list --json

Figure output is the text rendering of the figure's data; ``run``
prints a completion-time summary (or the same as JSON with ``--json``);
``sweep`` prints cross-seed aggregates and writes the per-cell JSONL
results store with ``--out``.
"""

import argparse
import json
import resource
import sys
import time

from repro.harness.figures import FIGURES, run_figure
from repro.harness.registry import FLOW_MODELS, SCENARIOS, SYSTEMS
from repro.harness.sweep import (
    AXES,
    TOPOLOGIES,
    StoreView,
    SweepSpec,
    execute_cell,
    golden_matrix_spec,
    run_sweep,
)


def _add_axis_flags(parser, flags, defaults, **kwargs):
    """One option per ``AXES`` row that has ``flags`` (``"run_flags"``
    or ``"sweep_flags"``) and an entry in ``defaults``."""
    for axis in AXES:
        names = getattr(axis, flags)
        if names and axis.field in defaults:
            parser.add_argument(
                *names, dest=axis.field, default=defaults[axis.field],
                help=axis.help, **kwargs,
            )


def _axis_fields(args, verb):
    """The spec fields set by the axis options: ``run`` values as
    typed, ``sweep`` grids split into their tokens."""
    fields = {}
    for axis in AXES:
        text = getattr(args, axis.field, None)
        if text is not None:
            split = verb == "sweep" and not axis.scalar
            fields[axis.grid] = axis.parse(text) if split else text
    return fields


def _fail(exc):
    """Report bad input as an ``error:`` line; the exit code is 2."""
    # KeyError str()-wraps its message in quotes; everything else
    # formats best as-is (OSError's args[0] is a bare errno).
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_figure_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce figures from 'Maintaining High Bandwidth under "
            "Dynamic Network Conditions' (Bullet', USENIX 2005)."
        ),
        epilog=(
            "Other commands: 'repro run' (any system under any dynamic "
            "scenario) and 'repro list' (registered systems, scenarios, "
            "flow models, topologies)."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(FIGURES) + ["all"],
        help="which figure to reproduce ('all' runs every one)",
    )
    # Each figure keeps its own scale unless told otherwise.
    figure_defaults = {"nodes": None, "blocks": None, "seed": 0}
    _add_axis_flags(parser, "run_flags", figure_defaults, type=int)
    return parser.parse_args(argv)


def _figure_kwargs(figure_id, args):
    # Not every figure takes both scale knobs (fig12/fig15 fix their own
    # topologies); pass only what applies.
    import inspect

    accepted = inspect.signature(FIGURES[figure_id]).parameters
    scale = {"num_nodes": args.nodes, "num_blocks": args.blocks}
    kwargs = {k: v for k, v in scale.items() if v is not None and k in accepted}
    return dict(kwargs, seed=args.seed)


def _figures_command(argv):
    args = _parse_figure_args(argv)
    targets = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for figure_id in targets:
        started = time.time()
        figure = run_figure(figure_id, **_figure_kwargs(figure_id, args))
        print(figure.render())
        print(f"[{figure_id} completed in {time.time() - started:.1f}s]\n")
    return 0


#: ``run`` shows one configuration, so it defaults to the paper's scale;
#: the spec defaults in ``AXES`` are sized for grids of many cells.
RUN_DEFAULTS = {axis.field: axis.default for axis in AXES}
RUN_DEFAULTS.update(nodes=40, blocks=320, max_time=6000.0)


def _run_parser():
    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "Run one registered system under one registered scenario."
        ),
    )
    _add_axis_flags(parser, "run_flags", RUN_DEFAULTS)
    parser.add_argument(
        "--trace",
        default=None,
        help="trace file for --scenario trace_replay",
    )
    parser.add_argument(
        "--watchdog-window",
        type=float,
        default=60.0,
        help="liveness window in simulated seconds: a run in which no "
        "started, incomplete node gains a block toward completion for "
        "this long is failed instead of hanging to --max-time",
    )
    parser.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the runtime invariant checker (no events on dead "
        "nodes, no delivery on closed connections); 'run' enables it "
        "by default, unlike the matrix/benchmark paths",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "report runtime statistics: events processed, reallocation "
            "passes, component sizes, wall-clock time, peak memory and "
            "core links built"
        ),
    )
    return parser


def _run_command(argv):
    args = _run_parser().parse_args(argv)
    try:
        fields = _axis_fields(args, "run")
        if args.trace is not None:
            if SCENARIOS.get(args.scenario).name != "trace_replay":
                raise ValueError("--trace only applies to --scenario trace_replay")
            fields["scenarios"] = {
                "name": args.scenario, "params": {"path": args.trace}
            }
        # A run is a one-cell sweep: same checks, same execution path.
        (cell,) = SweepSpec.from_dict(fields).expand()
    except (OSError, ValueError, KeyError) as exc:
        return _fail(exc)
    started = time.time()
    try:
        result = execute_cell(
            cell,
            watchdog_window=args.watchdog_window,
            check_invariants=not args.no_invariants,
        )
    except ValueError as exc:
        # The one per-verb setting the spec does not carry: the
        # watchdog window, refused by the layer that owns it.
        return _fail(exc)
    elapsed = time.time() - started
    summary = result.summary()
    failed_nodes = sorted(result.failed_nodes)
    fault_counters = result.trace.counters
    invariants = result.network.invariants
    invariant_report = invariants.report() if invariants is not None else None
    profile = None
    if args.profile:
        profile = dict(result.perf_stats())
        profile["events_per_second"] = (
            round(profile["events_processed"] / elapsed, 1) if elapsed > 0 else 0.0
        )
        profile["wall_seconds"] = round(elapsed, 3)
        # Linux reports ``ru_maxrss`` in KiB.
        profile["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        )
        # Core links are built on first use: how many the run asked for.
        core = result.network.topology.core
        profile["core_links_built"] = f"{len(core.built())}/{len(core)}"
    if args.json:
        doc = {
            axis.field: getattr(cell, axis.field)
            for axis in AXES
            if not axis.scalar
        }
        # The knobs set on the cell, when any were.
        doc.update(
            (field, value)
            for field, value in cell.to_dict().items()
            if field.endswith("_params") and value
        )
        doc.update(
            summary=summary,
            failed_nodes=failed_nodes,
            wall_seconds=round(elapsed, 3),
        )
        if invariant_report is not None:
            doc["invariants"] = invariant_report
        if profile is not None:
            doc["profile"] = profile
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        underlay = "" if cell.flow_model == "reno" else f" over {cell.flow_model}"
        print(
            f"{cell.system_key()} under {cell.scenario}{underlay} on "
            f"{cell.topology}({cell.nodes} nodes, {cell.blocks} blocks, "
            f"seed {cell.seed}):"
        )
        for key in ("median", "p90", "worst"):
            # None when no node completed (see ExperimentResult.summary).
            value = summary[key]
            shown = f"{'n/a':>10s}" if value is None else f"{value:10.1f} s"
            print(f"  {key:14s} {shown}")
        print(f"  {'finished':14s} {summary['finished']}")
        print(f"  {'duplicates':14s} {summary['duplicates']}")
        print(f"  {'control bytes':14s} {summary['control_bytes']}")
        if failed_nodes or any(fault_counters.values()):
            print(f"  {'failed nodes':14s} {failed_nodes}")
            for key, value in fault_counters.items():
                # Detector counters always; gray ones only when they moved.
                if key.startswith("fd_"):
                    print(f"  {key:14s} {value}")
                elif key.startswith("gray_") and value:
                    print(f"  {key:22s} {value}")
            watchdog = "FIRED" if fault_counters["watchdog_fired"] else "clean"
            print(f"  {'watchdog':14s} {watchdog}")
        if invariant_report is not None:
            state = (
                "ok"
                if invariant_report["ok"]
                else f"{len(invariant_report['violations'])} violation(s)"
            )
            print(
                f"  {'invariants':14s} {state} "
                f"({invariant_report['dispatches_checked']} dispatches checked)"
            )
        if profile is not None:
            print("profile:")
            for key, value in profile.items():
                if key not in fault_counters:  # those have their own rows
                    print(f"  {key:22s} {value}")
        print(f"[completed in {elapsed:.1f}s]")
    if invariant_report is not None and not invariant_report["ok"]:
        for violation in invariant_report["violations"][:10]:
            print(f"invariant violation: {violation}", file=sys.stderr)
        return 1
    return 0


def _sweep_parser():
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run a parameter sweep: a grid over systems, scenarios, "
            "topologies (each with parameter grids via --spec), "
            "scales, and seeds — each grid option takes comma-separated "
            "values — executed across a worker pool.  Results are "
            "bit-identical for any --workers value."
        ),
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="JSON sweep-spec file (see examples/sweep_spec.json); "
        "grid flags below override its fields",
    )
    parser.add_argument(
        "--golden-matrix",
        action="store_true",
        help="use the built-in acceptance matrix: every system x every "
        "scenario x seeds 1,3,5,7 on the 8-node mesh (288 cells)",
    )
    # Unset unless given, so a --spec file's values survive.
    _add_axis_flags(parser, "sweep_flags", dict.fromkeys(RUN_DEFAULTS))
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default 1: serial; results are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the per-cell JSONL results store here",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the spec + aggregates as JSON on stdout",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-cell progress lines on stderr "
        "(CI-friendly: no need to redirect stderr)",
    )
    parser.add_argument(
        "--check-golden",
        default=None,
        metavar="PATH",
        help="hold the sweep to a recorded JSONL store, matching cell "
        "keys; exit 1 if a recorded cell is missing or any field differs",
    )
    return parser


def _build_sweep_spec(args):
    fields = _axis_fields(args, "sweep")
    if args.golden_matrix:
        # The acceptance matrix is fixed by definition; silently
        # ignoring grid flags would let a user believe an override took
        # effect when it never could.
        conflicting = ["--spec"] * (args.spec is not None) + [
            axis.sweep_flags[0] for axis in AXES if axis.grid in fields
        ]
        if conflicting:
            raise ValueError(
                f"--golden-matrix fixes the whole grid; drop "
                f"{', '.join(conflicting)}"
            )
        return golden_matrix_spec()
    if args.spec is not None:
        # Normalize through SweepSpec so flag overrides apply on top of
        # a validated file.
        fields = {**SweepSpec.from_file(args.spec).to_dict(), **fields}
    return SweepSpec.from_dict(fields)


def _differences(expected, got, path=""):
    """``dotted.path: expected -> got`` for every leaf where two records
    differ, in sorted field order."""
    if not (isinstance(expected, dict) and isinstance(got, dict)):
        return [] if expected == got else [f"{path}: {expected!r} -> {got!r}"]
    return [
        line
        for field in sorted(expected.keys() | got.keys())
        for line in _differences(
            expected.get(field), got.get(field), f"{path}.{field}".lstrip(".")
        )
    ]


def _check_golden(result, golden):
    """Hold the sweep to a golden store: each golden record must be
    produced under its cell key and equal it field for field.  Sweep
    cells the store does not hold are other experiments and are not
    looked at.  Returns an exit code."""
    produced = {record["key"]: record for record in result.records}
    drifted, uncovered = {}, []
    for expected in golden.records:
        key = expected["key"]
        if key not in produced:
            uncovered.append(key)
        elif differences := _differences(expected, produced[key]):
            drifted[key] = differences
    print(
        f"golden check: {len(golden) - len(uncovered)}/{len(golden)} "
        f"recorded cells covered, {len(drifted)} mismatched",
        file=sys.stderr,
    )
    for key in list(drifted)[:10]:
        print(f"  drifted from golden: {key}", file=sys.stderr)
        for line in drifted[key][:5]:
            print(f"    {line}", file=sys.stderr)
    if uncovered:
        print(
            f"error: sweep did not cover {len(uncovered)} recorded golden "
            "cell(s):",
            file=sys.stderr,
        )
        for key in uncovered[:10]:
            print(f"  not covered: {key}", file=sys.stderr)
    return 1 if drifted or uncovered else 0


def _sweep_command(argv):
    args = _sweep_parser().parse_args(argv)
    golden = None
    try:
        spec = _build_sweep_spec(args)
        total = len(spec.expand())
        if args.check_golden is not None:
            # Load before the sweep: a typo'd path must not cost a run.
            golden = StoreView.from_jsonl(args.check_golden)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(exc)

    def progress(done, total, key):
        print(f"[{done}/{total}] {key}", file=sys.stderr)

    started = time.time()
    result = run_sweep(
        spec,
        workers=args.workers,
        progress=None if args.quiet else progress,
    )
    elapsed = time.time() - started
    if args.out is not None:
        result.write_jsonl(args.out)
    if args.json:
        print(
            json.dumps(
                # Deliberately no workers/wall-clock fields: JSON
                # output is bit-identical however the sweep was run.
                {
                    "spec": spec.to_dict(),
                    "cells": len(result),
                    "aggregates": result.aggregates(),
                },
                indent=1,
                sort_keys=True,
            )
        )
    else:
        print(result.render_aggregates())
        if args.out is not None:
            print(f"wrote {len(result)} cells to {args.out}")
        print(
            f"[swept {total} cells with {args.workers} worker(s) "
            f"in {elapsed:.1f}s]"
        )
    if golden is not None:
        return _check_golden(result, golden)
    return 0


def _parse_compare_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro compare",
        description=(
            "Paired per-seed comparison of systems in sweep JSONL "
            "store(s): league tables with median/p90/worst deltas vs a "
            "baseline, win rates, and paired Student-t confidence "
            "intervals."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="sweep JSONL result store(s) (concatenated)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="system every competitor is compared against, spelled as "
        "cell keys render it (bullet_prime, 'bullet_prime[fixed_outstanding=9]'; "
        "default: alphabetically first system in the store)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for the paired intervals "
        "(0.90, 0.95, or 0.99; default 0.95)",
    )
    parser.add_argument(
        "--format",
        choices=("markdown", "json"),
        default="markdown",
        help="report format (default: markdown league tables)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the report here (e.g. for a CI artifact)",
    )
    return parser.parse_args(argv)


def _compare_command(argv):
    from repro.harness import compare

    args = _parse_compare_args(argv)
    try:
        doc = compare.compare_paths(
            args.paths,
            baseline=args.baseline,
            confidence=args.confidence,
        )
    except (OSError, ValueError, KeyError) as exc:
        return _fail(exc)
    if args.format == "json":
        text = compare.render_json(doc)
    else:
        text = compare.render_markdown(doc) + "\n"
    print(text, end="")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _parse_list_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro list",
        description="List registered systems, scenarios, flow models, "
        "and topologies, each with its knobs.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    return parser.parse_args(argv)


def _list_command(argv):
    args = _parse_list_args(argv)
    registries = [
        ("systems", SYSTEMS),
        ("scenarios", SCENARIOS),
        ("flow_models", FLOW_MODELS),
        ("topologies", TOPOLOGIES),
    ]
    if args.json:
        doc = {
            title: registry.describe() for title, registry in registries
        }
        doc["figures"] = sorted(FIGURES)
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    for title, registry in registries:
        print(f"{title}:")
        for entry in registry.describe():
            aliases = entry["aliases"]
            alias_note = f" (aliases: {', '.join(aliases)})" if aliases else ""
            print(f"  {entry['name']:22s} {entry['description']}{alias_note}")
            if entry["params"]:
                knobs = ", ".join(
                    f"{p['name']}={p['default']!r}" for p in entry["params"]
                )
                print(f"  {'':22s} params: {knobs}")
        print()
    print(f"figures: {', '.join(sorted(FIGURES))} (or 'all')")
    return 0


def main(argv=None):
    argv = list(argv if argv is not None else sys.argv[1:])
    if argv and argv[0] == "run":
        return _run_command(argv[1:])
    if argv and argv[0] == "sweep":
        return _sweep_command(argv[1:])
    if argv and argv[0] == "list":
        return _list_command(argv[1:])
    if argv and argv[0] == "compare":
        return _compare_command(argv[1:])
    return _figures_command(argv)


if __name__ == "__main__":
    sys.exit(main())
