"""Named metrics computed from the records ``bench/child.py`` prints.

Names are fixed (later issues cite them verbatim) and are declared, with
unit and direction, in ``BENCHMARK.json``; this module only says how each
one is computed.  Host-time metrics are host seconds at reference speed
(what the simulator costs); ``sim_*`` metrics are simulated seconds (what
the modelled overlay achieves).
"""

import statistics

import calibrate

SWEEP_SYSTEMS = ("bullet", "bittorrent", "splitstream")


#: Host-time fields of a child's record (besides cells and spans).
HOST_TIME_FIELDS = (
    "wall_s",
    "cpu_s",
    "setup_s",
    "import_s",
    "topology_build_s",
    "build_s",
    "record_s",
)


def at_reference_speed(record):
    """Scale every host time of ``record`` to reference speed, in place
    (see ``bench/calibrate.py``); the raw wall time is kept beside it."""
    factor = calibrate.speed_factor(record["calibration_s"])
    record["raw_wall_s"] = record["wall_s"]
    for field in HOST_TIME_FIELDS:
        if field in record:
            record[field] *= factor
    for cell in record.get("cells", ()):
        cell["cell_s"] *= factor
    for row in record.get("spans", ()):
        row["total_s"] *= factor
        row["self_s"] *= factor
    return record


def member_metrics(record):
    """End-to-end values of one untraced measurement."""
    return {
        "wall_s": record["wall_s"],
        "blocks_per_wall_s": record["receiver_blocks"] / record["wall_s"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "sim_median_s": record["sim_median_s"],
        "sim_worst_s": record["sim_worst_s"],
    }


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(plain, traced):
    """Per-layer metrics from one untraced record and its traced twin.

    Counts are exact (``summary()["perf"]``, result objects, span
    counts); ``*_s`` values are self times from the traced run unless the
    name says otherwise; the rest are ratios of the two.
    """
    rows = traced["spans"]
    perf = traced["perf"]
    layer_of = {row["name"]: row["layer"] for row in rows}

    def total(field, keep):
        return sum(row[field] for row in rows if keep(row))

    def layer_self(layer):
        return total("self_s", lambda row: row["layer"] == layer)

    def named(suffix):
        return lambda row: row["name"].endswith(suffix)

    def is_handler(name):
        return lambda row: row["name"] == name

    def callback_in(layer):
        return lambda row: row["layer"] == layer and row["name"].startswith("cb:")

    def handler_in(layer):
        return lambda row: row["layer"] == layer and row["name"].startswith("on_")

    def link_write(row):
        return row["layer"] == "sim.links"

    def scenario_link_write(row):
        return link_write(row) and layer_of.get(row["parent"]) == "scenarios"

    def top_level_install(row):
        return (
            row["name"].endswith(".install")
            and layer_of.get(row["parent"]) != "scenarios"
        )

    events = perf["events_processed"]
    armed = perf["timers_allocated"] + perf["timers_recycled"]
    reallocate_s = total("self_s", named("FlowNetwork.reallocate"))
    actuations = total("count", callback_in("scenarios"))
    core_calls = total("count", handler_in("core"))
    received = traced["blocks_received"] + traced["duplicates"]
    cells = plain.get("cells", [])
    cell_seconds = [cell["cell_s"] for cell in cells]
    serial_sum = sum(cell_seconds)
    metrics = {
        "sim.engine.self_s": layer_self("sim.engine"),
        "sim.engine.events": events,
        "sim.engine.us_per_event": 1e6 * ratio(plain["wall_s"], events),
        "sim.engine.timer_pool_hit_share": ratio(perf["timers_recycled"], armed),
        "sim.engine.same_time_batched": perf["same_time_batched"],
        "sim.engine.heap_compactions": perf["heap_compactions"],
        "sim.tcp.self_s": layer_self("sim.tcp"),
        "sim.tcp.reallocate_s": reallocate_s,
        "sim.tcp.reallocations": perf["reallocations"],
        "sim.tcp.fill_rounds": perf["fill_rounds"],
        "sim.tcp.flows_allocated": perf["flows_allocated"],
        "sim.tcp.components_allocated": perf["components_allocated"],
        "sim.tcp.mean_component_size": ratio(
            perf["flows_allocated"], perf["components_allocated"]
        ),
        "sim.tcp.max_component_size": perf["max_component_size"],
        "sim.tcp.path_refreshes": perf["path_refreshes"],
        "sim.tcp.activations": total("count", named("FlowNetwork.activate")),
        "sim.tcp.us_per_flow_allocated": 1e6
        * ratio(reallocate_s, perf["flows_allocated"]),
        "sim.flow_models.self_s": layer_self("sim.flow_models"),
        "sim.flow_models.observe_rate_calls": total("count", named(".observe_rate")),
        "sim.flow_models.dynamic_cap_calls": total("count", named(".dynamic_cap")),
        "sim.links.self_s": layer_self("sim.links"),
        "sim.links.condition_writes": total("count", link_write),
        "scenarios.install_s": total("total_s", top_level_install),
        "scenarios.self_s": layer_self("scenarios"),
        "scenarios.actuations": actuations,
        "scenarios.link_writes_per_actuation": ratio(
            total("count", scenario_link_write), actuations
        ),
        "sim.transport.self_s": layer_self("sim.transport"),
        "sim.transport.messages_sent": total("count", named("Connection.send")),
        "sim.transport.events": total("count", callback_in("sim.transport")),
        "sim.transport.control_bytes": traced["control_bytes"],
        "sim.transport.dropped_after_close": traced["dropped_after_close"],
        "core.self_s": layer_self("core"),
        "core.handler_calls": core_calls,
        "core.us_per_handler_call": 1e6
        * ratio(total("self_s", handler_in("core")), core_calls),
        "core.duplicate_block_share": ratio(traced["duplicates"], received),
        "core.fd_retries": perf["fd_retries"],
        "core.fd_suspects": perf["fd_suspects"],
        "core.fd_rerequests": perf["fd_rerequests"],
        "core.gray_quarantines": perf["gray_quarantines"],
        "overlay.self_s": layer_self("overlay"),
        "overlay.events": total("count", callback_in("overlay"))
        + total("count", handler_in("overlay")),
        "baselines.self_s": layer_self("baselines"),
        "harness.faults.self_s": layer_self("harness.faults"),
        "harness.faults.injections": total(
            "count", lambda row: row["name"].startswith("FaultInjector.")
        ),
        "harness.faults.watchdog_fired": perf["watchdog_fired"],
        "harness.import_s": plain["import_s"],
        "sim.topology.build_s": plain["topology_build_s"],
        "sim.topology.links": plain["topology_links"],
        "harness.experiment.build_s": plain["build_s"],
        "harness.experiment.summary_s": total(
            "total_s", named("ExperimentResult.summary")
        ),
        "harness.experiment.cpu_s": plain["cpu_s"],
        "harness.sweep.cells": len(cells),
        "harness.sweep.cell_s_median": (
            statistics.median(cell_seconds) if cells else 0.0
        ),
        "harness.sweep.cell_s_max": max(cell_seconds, default=0.0),
        "harness.sweep.serial_cell_sum_s": serial_sum,
        "harness.sweep.pool_efficiency": ratio(serial_sum, 2.0 * plain["wall_s"]),
        "harness.sweep.record_s": plain.get("record_s", 0.0),
        "harness.sweep.unfinished_cells": plain["unfinished"] if cells else 0,
        # For the sweep the traced pass is serial, so its base is the
        # serial cost of the untraced cells, not the two-worker wall.
        "trace.overhead_ratio": ratio(traced["wall_s"], serial_sum or plain["wall_s"]),
        "trace.attributed_share": ratio(
            total("self_s", lambda row: True), traced["wall_s"]
        ),
        "sim_worst_s": plain["sim_worst_s"],
    }
    for kind in ("on_bp_block", "on_bp_diff", "on_bp_request", "on_bp_diff_request"):
        metrics[f"core.{kind}.calls"] = total("count", is_handler(kind))
        if kind != "on_bp_diff_request":
            metrics[f"core.{kind}.self_s"] = total("self_s", is_handler(kind))
    for system in SWEEP_SYSTEMS:
        mine = [cell for cell in cells if cell["system"] == system]
        finished = [cell["median"] for cell in mine if cell["finished"]]
        metrics[f"baselines.cell_s.{system}"] = sum(cell["cell_s"] for cell in mine)
        metrics[f"baselines.sim_median_s.{system}"] = (
            statistics.fmean(finished) if finished else 0.0
        )
    return metrics
