"""Incremental allocation must be bit-identical to full recomputation.

The component-scoped allocator's contract (see the ``repro.sim.tcp``
module docstring) is that skipping clean components changes *nothing*:
for any sequence of activations, deactivations, and capacity changes,
every flow's rate — and the event sequence driven by rate-change
callbacks — matches a :class:`FlowNetwork` that recomputes every
component on every pass.  These tests drive both allocator modes with
randomized operation scripts on randomized topologies and compare every
flow rate for exact (bit-level) equality at every checkpoint.
"""

import random

import pytest

from repro.harness.experiment import run_experiment
from repro.harness.registry import SCENARIOS, SYSTEMS
from repro.sim.engine import Simulator
from repro.sim.flow_models import AutorateModel, BbrModel
from repro.sim.links import Link, apply
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import mesh_topology


def _build_world(seed, incremental, num_links=12, num_flows=24, model=None):
    """One (sim, network, links, flows) universe; two calls with the same
    seed build identical twins (separate Link/Flow objects)."""
    rng = random.Random(seed)
    sim = Simulator()
    net = FlowNetwork(sim, model=model, reallocation_interval=0.01,
                      incremental=incremental)
    links = [
        Link(
            f"l{i}",
            capacity=rng.uniform(50_000, 2_000_000),
            delay=rng.uniform(0.001, 0.2),
            loss_rate=rng.choice([0.0, rng.uniform(0.0, 0.05)]),
        )
        for i in range(num_links)
    ]
    flows = []
    for i in range(num_flows):
        path = rng.sample(links, rng.randint(1, 3))
        flows.append(net.new_flow(f"f{i}", path))
    return sim, net, links, flows


def _random_script(seed, num_links, num_flows, num_ops=120, horizon=30.0,
                   conditions=False):
    """Timestamped operations referring to links/flows by index, so the
    same script can drive both twin universes.  ``conditions`` adds
    loss-rate and delay writes (path refreshes) to the mix."""
    rng = random.Random(seed * 7919 + 13)
    kinds = ["activate", "deactivate", "capacity", "scale"]
    if conditions:
        kinds += ["loss", "delay"]
    ops = []
    for _ in range(num_ops):
        t = rng.uniform(0.0, horizon)
        kind = rng.choice(kinds)
        if kind == "loss":
            ops.append((t, "loss", rng.randrange(num_links),
                        rng.choice([0.0, 0.005, 0.02, 0.08])))
        elif kind == "delay":
            ops.append((t, "delay", rng.randrange(num_links),
                        rng.uniform(0.001, 0.2)))
        elif kind == "activate":
            ops.append((t, "activate", rng.randrange(num_flows)))
        elif kind == "deactivate":
            ops.append((t, "deactivate", rng.randrange(num_flows)))
        elif kind == "capacity":
            ops.append(
                (t, "capacity", rng.randrange(num_links),
                 rng.uniform(20_000, 3_000_000))
            )
        else:
            ops.append(
                (t, "scale", rng.randrange(num_links),
                 rng.choice([0.25, 0.5, 2.0, 4.0]))
            )
    ops.sort(key=lambda op: op[0])
    return ops


def _install(sim, net, links, flows, ops):
    for op in ops:
        if op[1] == "activate":
            sim.schedule_at(op[0], net.activate, flows[op[2]])
        elif op[1] == "deactivate":
            sim.schedule_at(op[0], net.deactivate, flows[op[2]])
        elif op[1] in ("capacity", "loss", "delay"):
            attr = {"capacity": "capacity", "loss": "loss_rate",
                    "delay": "delay"}[op[1]]
            def set_attr(link=links[op[2]], attr=attr, value=op[3]):
                setattr(link, attr, value)
            sim.schedule_at(op[0], set_attr)
        else:
            row = {"link": links[op[2]], "scale": op[3]}
            sim.schedule_at(op[0], apply, None, [row])


def _assert_twins_agree(seed, model_cls=None, conditions=False):
    models = (None, None) if model_cls is None else (model_cls(), model_cls())
    sim_i, net_i, links_i, flows_i = _build_world(
        seed, incremental=True, model=models[0])
    sim_f, net_f, links_f, flows_f = _build_world(
        seed, incremental=False, model=models[1])
    ops = _random_script(seed, len(links_i), len(flows_i), conditions=conditions)
    _install(sim_i, net_i, links_i, flows_i, ops)
    _install(sim_f, net_f, links_f, flows_f, ops)

    # Compare at many checkpoints, not just the end: transient rates are
    # part of the contract (they drive transmission-complete timing).
    for checkpoint in [2.0, 5.0, 9.0, 14.0, 21.0, 35.0, 60.0]:
        sim_i.run(until=checkpoint)
        sim_f.run(until=checkpoint)
        assert sim_i.now == sim_f.now
        for a, b in zip(flows_i, flows_f):
            assert a.rate == b.rate, (
                f"seed {seed} t={checkpoint}: {a.name} "
                f"incremental={a.rate!r} full={b.rate!r}"
            )
            assert a.active == b.active
            assert a.ramp_done == b.ramp_done
    # Both modes must have run the same coalesced passes and driven the
    # identical simulator event sequence.
    assert net_i.reallocations == net_f.reallocations
    assert sim_i.events_processed == sim_f.events_processed
    return net_i, net_f


@pytest.mark.parametrize("seed", range(8))
def test_incremental_matches_full_on_random_scripts(seed):
    _assert_twins_agree(seed)


@pytest.mark.parametrize("model_cls", [BbrModel, AutorateModel])
@pytest.mark.parametrize("seed", range(4))
def test_incremental_matches_full_under_dynamic_models(seed, model_cls):
    """A dynamic model's cap can shrink, so every active flow seeds every
    pass in both modes; that is why the post-fill ramp sweep is skipped
    under one.  Loss and delay writes drive the models' path refreshes
    (autorate's RED / YELLOW classes, BBR's inflight bound)."""
    net_i, net_f = _assert_twins_agree(seed, model_cls, conditions=True)
    assert net_i.path_refreshes == net_f.path_refreshes > 0
    # Every active flow is a seed, so incremental does full's work.
    assert net_i.perf_stats() == net_f.perf_stats()


def _matrix_run(scenario_name, flow_allocator, seed=3, flow_model=None):
    return run_experiment(
        mesh_topology(8, seed=seed),
        SYSTEMS.get("bullet_prime").builder(num_blocks=24, seed=seed),
        24,
        scenario=SCENARIOS.build(scenario_name),
        max_time=900.0,
        seed=seed,
        flow_allocator=flow_allocator,
        flow_model=flow_model,
    )


@pytest.mark.parametrize("scenario_name", ["none", "churn", "oscillate"])
def test_summary_perf_counters_deterministic_and_equivalent(scenario_name):
    """The deterministic ``summary()["perf"]`` counters are part of the
    equivalence contract.

    Per mode, repeated runs must reproduce every counter bit for bit
    (they ride in summaries, so any wobble would break golden files).
    Across modes, the shared-work counters — simulator events processed
    and coalesced reallocation passes — must be *identical*: both modes
    execute the same schedule.  The component/flow-allocation counters
    legitimately differ (smaller in incremental mode — skipping that
    work is the whole optimization), so for those the contract is
    incremental <= full, never more work.
    """
    perf = {}
    rest = {}
    for mode in ("incremental", "full"):
        first = _matrix_run(scenario_name, mode).summary()
        second = _matrix_run(scenario_name, mode).summary()
        assert first == second, f"{mode} summaries must be deterministic"
        perf[mode] = first.pop("perf")
        rest[mode] = first
    # Same experiment in both modes: every non-work field is equal.
    assert rest["incremental"] == rest["full"]
    inc, full = perf["incremental"], perf["full"]
    assert set(inc) == set(full) == {
        "events_processed",
        "timers_allocated",
        "timers_recycled",
        "same_time_batched",
        "heap_compactions",
        "reallocations",
        "components_allocated",
        "flows_allocated",
        "fill_rounds",
        "path_refreshes",
        "max_component_size",
        "mean_component_size",
        # Failure-handling totals (PR 7): always present, zero when no
        # fault ever actuated, so fault-free summaries stay uniform.
        "fd_retries",
        "fd_suspects",
        "fd_rerequests",
        "fd_rejoins",
        "watchdog_fired",
        # Gray-failure totals (PR 9): same always-present contract.
        "gray_quarantines",
        "gray_reprobes",
        "gray_corrupt_detected",
        "gray_dup_dropped",
        "gray_reordered",
    }
    assert inc["events_processed"] == full["events_processed"]
    assert inc["reallocations"] == full["reallocations"]
    # Path refreshes are driven by link-condition changes, not by how
    # the allocator scopes its fills — identical across modes.
    assert inc["path_refreshes"] == full["path_refreshes"]
    assert inc["components_allocated"] <= full["components_allocated"]
    assert inc["flows_allocated"] <= full["flows_allocated"]
    assert inc["fill_rounds"] <= full["fill_rounds"]
    assert inc["max_component_size"] <= full["max_component_size"]
    # timers_allocated counts every armed event, so it bounds the
    # executed ones; the event core pools nothing, so recycled reads 0.
    assert inc["timers_allocated"] >= inc["events_processed"]
    assert inc["timers_recycled"] == 0


@pytest.mark.parametrize("flow_model", ["bbr", "autorate"])
@pytest.mark.parametrize("scenario_name", ["oscillate", "gilbert_elliott"])
def test_dynamic_model_experiments_identical_in_both_modes(scenario_name,
                                                           flow_model):
    """Whole experiments under the batched dynamic-model hooks: the two
    allocator modes give the same summary and, since every active flow
    seeds every pass, the same work counters too."""
    inc = _matrix_run(scenario_name, "incremental", flow_model=flow_model)
    full = _matrix_run(scenario_name, "full", flow_model=flow_model)
    assert inc.summary() == full.summary()


def test_incremental_skips_clean_components():
    """Two disjoint link groups: churning one must not re-fill the other."""
    sim = Simulator()
    net = FlowNetwork(sim, reallocation_interval=0.0, incremental=True)
    left = Link("left", capacity=1000.0)
    right = Link("right", capacity=1000.0)
    f_left = net.new_flow("fl", [left])
    f_right = net.new_flow("fr", [right])
    f_left.ramp_done = True  # isolate the dirtiness logic from ramping
    f_right.ramp_done = True
    net.activate(f_left)
    net.activate(f_right)
    sim.run(until=1.0)
    assert f_left.rate == 1000.0 and f_right.rate == 1000.0
    flows_allocated = net.flows_allocated

    # Churn only the left component.
    for i in range(5):
        sim.schedule(0.1 * i, apply, None, [{"link": left, "scale": 0.5}])
    sim.run(until=2.0)
    assert f_left.rate == 1000.0 * 0.5**5
    assert f_right.rate == 1000.0
    # Only the left flow was ever re-allocated.
    assert net.flows_allocated - flows_allocated == 5


def test_full_mode_refills_everything():
    sim = Simulator()
    net = FlowNetwork(sim, reallocation_interval=0.0, incremental=False)
    left = Link("left", capacity=1000.0)
    right = Link("right", capacity=1000.0)
    f_left = net.new_flow("fl", [left])
    f_right = net.new_flow("fr", [right])
    f_left.ramp_done = True
    f_right.ramp_done = True
    net.activate(f_left)
    net.activate(f_right)
    sim.run(until=1.0)
    baseline = net.flows_allocated
    sim.schedule(0.0, apply, None, [{"link": left, "scale": 0.5}])
    sim.run(until=2.0)
    # Both components re-filled even though only one changed.
    assert net.flows_allocated - baseline == 2
    assert f_right.rate == 1000.0
