"""The benchmark's pinned workloads: names, inputs and sizes.

Why each workload exists is recorded beside its name in
``BENCHMARK.json`` and ``bench/README.md``; this module only holds the
inputs.  Every input is generated from the ``--seed`` argument: the seed
feeds the topology draw, the scenario schedule and protocol jitter
through ``run_experiment(seed=...)``; ``sweep_small`` uses the two seeds
``seed+1`` and ``seed+2``.  Scenario knobs are the registry defaults.

``nodes`` are the issue's; ``blocks`` are the issue's scaled by 0.25 so
that several fresh-process members of any workload fit the driver's
budget on a 2-core box.  ``star_protocol`` keeps 640 blocks: below about
600 its median completion time is the same number for every seed (see
README, "How sizes were chosen").
"""

#: Simulated-time caps of the timed region.  Single runs keep the
#: harness default.  The sweep's cap is about four times its slowest
#: finishing cell (38 simulated s) instead of the CLI's 1800: on some
#: seeds a ``splitstream|gray_chaos`` cell never finishes and burns host
#: time in proportion to the cap (15-24 s per cell at 1800).
SINGLE_MAX_TIME = 9000.0
SWEEP_MAX_TIME = 150.0
SWEEP_WORKERS = 2

WORKLOADS = {
    "mesh_static": {
        "system": "bullet_prime",
        "scenario": "none",
        "flow_model": "reno",
        "topology": "mesh",
        "nodes": 50,
        "blocks": 256,
    },
    "mesh_oscillate": {
        "system": "bullet_prime",
        "scenario": "oscillate",
        "flow_model": "reno",
        "topology": "mesh",
        "nodes": 100,
        "blocks": 128,
    },
    "star_protocol": {
        "system": "bullet_prime",
        "scenario": "none",
        "flow_model": "reno",
        "topology": "star",
        "nodes": 50,
        "blocks": 640,
    },
    "lossy_bbr": {
        "system": "bullet_prime",
        "scenario": "gilbert_elliott",
        "flow_model": "bbr",
        "topology": "mesh",
        "nodes": 50,
        "blocks": 256,
    },
    "sweep_small": {
        "systems": ["bullet_prime", "bullet", "bittorrent", "splitstream"],
        "scenarios": [
            "none",
            "correlated_decreases",
            "churn",
            "crash_restart",
            "gray_chaos",
        ],
        "topology": "mesh",
        "nodes": 16,
        "blocks": 16,
        "seeds": 2,
    },
}

#: ``--smoke``: the same five code paths at a size the tier-1 self-test
#: can afford (10 nodes x 32 blocks, an 8-cell sweep).
SMOKE = {
    "nodes": 10,
    "blocks": 32,
    "systems": ["bullet_prime", "bullet"],
    "scenarios": ["none", "crash_restart"],
    "seeds": 2,
}


def sized(name, smoke=False):
    """The inputs of workload ``name`` at full or smoke scale."""
    workload = dict(WORKLOADS[name], name=name)
    if smoke:
        workload.update(
            {key: value for key, value in SMOKE.items() if key in workload}
        )
    return workload


def is_sweep(workload):
    return "systems" in workload


def build_topology(workload, seed):
    from repro.harness.sweep import TOPOLOGIES

    return TOPOLOGIES[workload["topology"]](workload["nodes"], seed=seed)


def single_call(workload, seed, max_time, topology=None):
    """``(args, kwargs)`` of a single-run workload's ``run_experiment``
    call, its inputs freshly generated (all but a ``topology`` passed in)."""
    from repro.harness.registry import SCENARIOS, SYSTEMS

    factory = SYSTEMS.get(workload["system"]).builder(
        num_blocks=workload["blocks"], seed=seed
    )
    if topology is None:
        topology = build_topology(workload, seed)
    args = (topology, factory, workload["blocks"])
    kwargs = {
        "scenario": SCENARIOS.build(workload["scenario"]),
        "max_time": max_time,
        "seed": seed,
        "flow_model": workload["flow_model"],
    }
    return args, kwargs


def build_sweep(workload, seed):
    """The :class:`~repro.harness.sweep.SweepSpec` of a sweep workload."""
    from repro.harness.sweep import SweepSpec

    return SweepSpec(
        systems=workload["systems"],
        scenarios=workload["scenarios"],
        topologies=(workload["topology"],),
        nodes=(workload["nodes"],),
        blocks=(workload["blocks"],),
        seeds=tuple(seed + offset for offset in range(1, workload["seeds"] + 1)),
        max_time=SWEEP_MAX_TIME,
    )
