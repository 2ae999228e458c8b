"""One measurement of one workload, in a fresh interpreter.

``python bench/child.py WORKLOAD SEED SCALE TRACED`` (``SCALE`` is
``full`` or ``smoke``, ``TRACED`` is ``0`` or ``1``) prints one JSON
record as its last line of standard output.  ``bench/run.py`` starts one
of these per repeat, so ``peak_rss_mb`` belongs to one workload and heap
state cannot leak between repeats.

Regions, in order:

- **set-up** (``setup_s``): from this module's first statement, through
  importing ``repro`` and filling its registries, generating the inputs,
  to the end of one zero-horizon priming call
  ``run_experiment(..., max_time=0.0)``;
- **timed** (``wall_s``): the inputs are rebuilt, then exactly
  ``run_experiment(...)`` + ``result.summary()`` (single-run workloads) or
  ``run_sweep(spec, workers=2)`` + ``.to_jsonl()`` (``sweep_small``).

A traced measurement installs ``bench/trace.py`` between the two regions
and, for ``sweep_small``, runs the cells serially through the public
``run_cell`` so that every span is in this process.
"""

import time

_STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibrate  # noqa: E402
import trace as bench_trace  # noqa: E402  (bench/trace.py: HERE is sys.path[0])
import workloads  # noqa: E402


class Facts:
    """What the record needs from result objects, summed over runs."""

    def __init__(self):
        self.blocks_received = 0
        self.duplicates = 0
        self.dropped_after_close = 0
        self.failures = []

    def add(self, result):
        trace = result.trace
        self.blocks_received += sum(len(a) for a in trace.block_arrivals.values())
        self.duplicates += trace.total_duplicates()
        network = next(iter(result.nodes.values())).network
        self.dropped_after_close += network.dropped_after_close
        for node_id in trace.completion_times:
            if node_id == result.source_id:
                continue
            held = {block for _, block in trace.block_arrivals.get(node_id, ())}
            if len(held) < trace.num_blocks:
                self.failures.append(
                    f"receiver {node_id} completed holding {len(held)} of "
                    f"{trace.num_blocks} blocks"
                )


def sum_perf(summaries):
    """Add up ``summary()["perf"]`` counters; sizes take their maximum."""
    total = {}
    for summary in summaries:
        for key, value in summary["perf"].items():
            if key == "max_component_size":
                total[key] = max(total.get(key, 0), value)
            elif key != "mean_component_size":
                total[key] = total.get(key, 0) + value
    return total


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pool_cell_seconds(cells, started, stamps, workers):
    """Per-cell wall time of an untraced ``run_sweep(workers=N)``.

    ``run_sweep`` hands cells to its pool in index order, one at a time
    (``imap_unordered``, chunksize 1), so the worker freed by the j-th
    completion starts cell ``j + workers``.  ``stamps`` holds
    ``(key, time)`` per completion from the public ``progress`` callback.
    """
    index = {cell.key(): i for i, cell in enumerate(cells)}
    starts = [started] * len(cells)
    for j, (_key, at) in enumerate(stamps):
        if j + workers < len(cells):
            starts[j + workers] = at
    return {key: at - starts[index[key]] for key, at in stamps}


def measure_single(workload, seed, tracer, facts):
    import repro.harness.experiment as experiment

    args, kwargs = workloads.single_call(workload, seed, workloads.SINGLE_MAX_TIME)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if tracer is None:
        result = experiment.run_experiment(*args, **kwargs)
    else:
        result = tracer.span(
            "run_experiment",
            bench_trace.HARNESS_LAYER,
            experiment.run_experiment,
            *args,
            **kwargs,
        )
    summary = result.summary()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if tracer is None:
        facts.add(result)
    failures = []
    if not summary["finished"]:
        failures.append("run ended with finished=False")
    if summary["perf"]["watchdog_fired"]:
        failures.append("liveness watchdog fired")
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "operations": 1,
        "unfinished": 0 if summary["finished"] else 1,
        "failures": failures,
        "receiver_blocks": (workload["nodes"] - 1) * workload["blocks"],
        "sim_median_s": summary["median"],
        "sim_worst_s": summary["worst"],
        "sim_digest": digest(json.dumps(summary, sort_keys=True)),
        "perf": sum_perf([summary]),
    }


def measure_sweep(workload, seed, tracer):
    from repro.harness.sweep import SweepResult, run_cell, run_sweep

    spec = workloads.build_sweep(workload, seed)
    cells = spec.expand()
    stamps = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if tracer is None:
        result = run_sweep(
            spec,
            workers=workloads.SWEEP_WORKERS,
            progress=lambda _done, _total, key: stamps.append(
                (key, time.perf_counter())
            ),
        )
    else:
        records = []
        for cell in cells:
            records.append(
                tracer.span(
                    f"cell:{cell.system}|{cell.scenario}",
                    bench_trace.HARNESS_LAYER,
                    run_cell,
                    cell,
                )
            )
            stamps.append((cell.key(), time.perf_counter()))
        result = SweepResult(spec, records)
    record0 = time.perf_counter()
    jsonl = result.to_jsonl()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if tracer is None:
        cell_seconds = pool_cell_seconds(
            cells, wall0, stamps, workloads.SWEEP_WORKERS
        )
    else:
        cell_seconds = pool_cell_seconds(cells, wall0, stamps, 1)
    summaries = [record["summary"] for record in result.records]
    headline = [
        record["summary"]
        for record in result.records
        if record["cell"]["system"] == "bullet_prime" and record["summary"]["finished"]
    ]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "record_s": wall0 + wall - record0,
        "operations": len(cells),
        "unfinished": sum(1 for s in summaries if not s["finished"]),
        "failures": [],
        "receiver_blocks": len(cells) * (workload["nodes"] - 1) * workload["blocks"],
        "sim_median_s": sum(s["median"] for s in headline) / len(headline),
        "sim_worst_s": sum(s["worst"] for s in headline) / len(headline),
        "sim_digest": digest(jsonl),
        "perf": sum_perf(summaries),
        "cells": [
            {
                "key": record["key"],
                "system": record["cell"]["system"],
                "cell_s": cell_seconds[record["key"]],
                "finished": record["summary"]["finished"],
                "median": record["summary"]["median"],
            }
            for record in result.records
        ],
    }


def write_trace(record, tracer):
    """``bench/out/<workload>.trace.json``: aggregates plus raw spans."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    origin = min((span[2] for span in tracer.raw), default=0.0)
    doc = {key: record[key] for key in ("workload", "seed", "scale", "spans")}
    doc["traced_wall_s"] = record["wall_s"]
    doc["raw_sim_seconds"] = bench_trace.RAW_SIM_SECONDS
    doc["raw_spans"] = [
        {
            "name": name,
            "layer": tracer.layers[name],
            "parent": parent,
            "start_s": start - origin,
            "end_s": end - origin,
        }
        for name, parent, start, end in tracer.raw
    ]
    path = os.path.join(out_dir, f"{record['workload']}.trace.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv):
    name, seed, scale, traced = argv[1], int(argv[2]), argv[3], argv[4] == "1"
    workload = workloads.sized(name, smoke=(scale == "smoke"))
    sweep = workloads.is_sweep(workload)

    # -- set-up ----------------------------------------------------------------
    import repro.harness.experiment as experiment
    from repro.harness.registry import FLOW_MODELS, SCENARIOS, SYSTEMS
    from repro.harness.sweep import run_cell

    for registry in (SYSTEMS, SCENARIOS, FLOW_MODELS):
        registry.names()
    imported = time.perf_counter()
    topology = workloads.build_topology(workload, seed + 1 if sweep else seed)
    topology_built = time.perf_counter()
    links = len(topology.core) + len(topology.access_up) + len(topology.access_down)
    if sweep:
        # run_cell builds its own topology; the one above is cell 0's twin.
        prime = workloads.build_sweep(workload, seed).expand()[0].to_dict()
        prime["max_time"] = 0.0
        prime_started = time.perf_counter()
        run_cell(prime)
    else:
        args, kwargs = workloads.single_call(workload, seed, 0.0, topology)
        prime_started = time.perf_counter()
        experiment.run_experiment(*args, **kwargs)
    set_up = time.perf_counter()
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "import_s": imported - _STARTED,
        "topology_build_s": topology_built - imported,
        "topology_links": links,
        "build_s": set_up - prime_started,
        "setup_s": set_up - _STARTED,
        "loadavg1": os.getloadavg()[0],
    }

    # -- timed region ----------------------------------------------------------
    facts = Facts()
    tracer = bench_trace.install(facts.add) if traced else None
    # Machine speed right before and right after the timed region (one
    # burst each at smoke scale, where nothing is read off the times).
    burst_count = 1 if scale == "smoke" else 4
    speed = calibrate.bursts(burst_count)
    if sweep:
        record.update(measure_sweep(workload, seed, tracer))
    else:
        record.update(measure_single(workload, seed, tracer, facts))
    record["calibration_s"] = speed + calibrate.bursts(burst_count)
    record["failures"] += facts.failures
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sweep:
        peak_kib = max(
            peak_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    record["peak_rss_mb"] = peak_kib / 1024.0
    if traced or not sweep:
        record["blocks_received"] = facts.blocks_received
        record["duplicates"] = facts.duplicates
        record["dropped_after_close"] = facts.dropped_after_close
    if traced:
        record["spans"] = tracer.export()
        record["control_bytes"] = tracer.control_bytes
        write_trace(record, tracer)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv)
