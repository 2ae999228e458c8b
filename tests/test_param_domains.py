"""Every knob's legal values are declared once, on its ``Param``.

Three contracts: the schema (each registered system / scenario /
flow-model / topology ``Param`` carries a domain its default lies in),
the refusal (a value just outside a finite bound is refused wherever
values enter — ``Param.coerce``, the builder, ``SweepSpec``, both CLI
verbs — and the bound itself is legal exactly when its bracket is
closed), and the in-domain fuzz (any setting drawn inside the domains
runs to a verdict).
"""

import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.common.params import Param, with_defaults
from repro.harness.experiment import run_experiment
from repro.harness.registry import FLOW_MODELS, SCENARIOS, SYSTEMS
from repro.harness.sweep import TOPOLOGIES, SweepSpec
from repro.sim.topology import mesh_topology

PARAMS = [
    pytest.param(registry, entry, param, id=f"{name}.{param.name}")
    for registry in (SYSTEMS, SCENARIOS, FLOW_MODELS, TOPOLOGIES)
    for name, entry in registry.items()
    for param in entry.params
]

#: The scenario knobs that time how long a fault holds.  The fault
#: injector takes no duration, so each knob's domain is its one check.
DURATION_KNOBS = [
    ("partition", "duration"),
    ("chaos", "partition_duration"),
    ("chaos", "down_time"),
    ("crash_restart", "down_time"),
    ("fail_slow", "duration"),
    ("flaky", "window"),
    ("gray_chaos", "degrade_duration"),
    ("gray_chaos", "flake_window"),
]

#: The spec field whose entries carry each registry's knobs.
SPEC_FIELD = {SYSTEMS: "systems", SCENARIOS: "scenarios", TOPOLOGIES: "topologies"}


def _build(registry, entry, **knobs):
    """Build ``entry`` with ``knobs`` (a topology also needs a size)."""
    return entry.builder(*([4] if registry is TOPOLOGIES else []), **knobs)


def _numeric(param):
    return param.kind in ("float", "int") and param.name != "seed"


def _bounds(param):
    """``[(bound, closed, the value just outside it)]`` for each finite
    bound of a numeric domain, as values of the param's kind."""
    low, low_closed, high, high_closed = param._interval
    bounds = []
    for bound, closed, away in ((low, low_closed, -1), (high, high_closed, 1)):
        if not math.isfinite(bound):
            continue
        if param.kind == "int":
            bounds.append((int(bound), closed, int(bound) + away))
        else:
            bounds.append((bound, closed, math.nextafter(bound, away * math.inf)))
    return bounds


@pytest.mark.parametrize("registry, entry, param", PARAMS)
class TestEveryDeclaredParam:
    def test_schema_carries_the_domain(self, registry, entry, param):
        doc = param.as_dict()
        assert doc["domain"] == param.domain
        assert doc["nullable"] is param.nullable
        if _numeric(param):
            assert param.domain is not None, "a numeric knob states its range"
        assert param.check(param.default) == param.default

    def test_with_defaults_preserves_the_domain(self, registry, entry, param):
        (copy,) = with_defaults((param,), **{param.name: param.default})
        assert (copy.domain, copy.nullable) == (param.domain, param.nullable)

    def test_none_is_legal_exactly_when_nullable(self, registry, entry, param):
        if param.nullable:
            assert param.coerce(None) is None
            _build(registry, entry, **{param.name: None})
        else:
            build = lambda v: _build(registry, entry, **{param.name: v})
            for enter in (param.coerce, build):
                with pytest.raises(ValueError, match=f"'{param.name}' must be"):
                    enter(None)


@pytest.mark.parametrize(
    "registry, entry, param", [p for p in PARAMS if p.values[2]._interval]
)
def test_bounds_are_enforced_wherever_values_enter(registry, entry, param):
    entries = [param.coerce, lambda v: _build(registry, entry, **{param.name: v})]
    if registry in SPEC_FIELD:
        entries.append(
            lambda v: SweepSpec(
                **{
                    SPEC_FIELD[registry]: [
                        {"name": entry.name, "params": {param.name: v}}
                    ]
                }
            )
        )
    for bound, closed, outside in _bounds(param):
        for value in [outside] if closed else [outside, bound]:
            for enter in entries:
                with pytest.raises(ValueError) as info:
                    enter(value)
                message = str(info.value)
                assert f"'{param.name}'" in message
                assert param.domain in message
                assert repr(value) in message
        if closed:
            assert param.coerce(bound) == bound


class TestParamDomain:
    def test_string_domain_is_the_tuple_of_values(self):
        param = Param("way", "str", "up", "", ("up", "down"))
        assert param.coerce("down") == "down"
        with pytest.raises(ValueError, match=r"'way' must be one of \['up', 'down'\]"):
            param.coerce("sideways")
        assert param.as_dict()["domain"] == ("up", "down")

    def test_malformed_interval_is_refused_at_declaration(self):
        with pytest.raises(ValueError, match="interval"):
            Param("x", "float", 1.0, "", "0..1")

    def test_default_outside_the_domain_is_refused_at_declaration(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            Param("x", "float", 0.0, "", "(0, 1]")

    def test_explicit_nullable_survives_with_defaults(self):
        (param,) = with_defaults(
            (Param("d", "float", 45.0, "", "(0, inf)", True),), d=10.0
        )
        assert param.nullable and param.check(None) is None
        # A nullability that only followed a None default follows the new one.
        (param,) = with_defaults((Param("s", "float", None, "", "[0, inf)"),), s=0.0)
        assert not param.nullable

    @pytest.mark.parametrize("name, knob", [("churn", "period"), *DURATION_KNOBS])
    def test_constructor_checks_without_coercing(self, name, knob):
        builder = SCENARIOS.get(name).builder
        assert getattr(builder(**{knob: 20}), knob) == 20  # an int stays an int
        (param,) = [p for p in builder.params if p.name == knob]
        refused = re.escape(f"'{knob}' must be in {param.domain}")
        for bad in (-1, float("nan"), float("inf"), "soon"):
            with pytest.raises(ValueError, match=refused):
                builder(**{knob: bad})


# -- system and topology knobs are refused at spec time, under both verbs -------

BAD_KNOBS = [
    ("systems", "bullet_prime", {"request_strategy": "bogus"},
     ["'request_strategy'", "['first', 'random', 'rarest', 'rarest_random']"]),
    ("systems", "bullet_prime", {"fixed_outstanding": 0},
     ["'fixed_outstanding'", "[1, inf)", "0"]),
    ("systems", "bullet_prime", {"ransub_epoch": [None]},
     ["'ransub_epoch'", "(0, inf)", "None"]),
    ("systems", "bullet_prime", {"tree_fanout": 4},
     ["'bullet_prime' has no param 'tree_fanout'; declared: ['block_size',"]),
    ("systems", "bittorrent", {"unchoke_slots": 4},
     ["'bittorrent' has no param 'unchoke_slots'; declared: []"]),
    ("systems", "splitstream", {"num_stripes": 2.5}, ["'num_stripes' expects int"]),
    ("topologies", "mesh", {"max_loss": 1.5}, ["'max_loss'", "[0, 1)", "1.5"]),
    ("topologies", "mesh", {"core_bw": [None]}, ["'core_bw'", "(0, inf)", "None"]),
    ("topologies", "star", {"core_bw": 1e6},
     ["'star' has no param 'core_bw'; declared: ['core_delay']"]),
]


@pytest.mark.parametrize("verb", ["run", "sweep-1", "sweep-2"])
@pytest.mark.parametrize(
    "field, name, params, named",
    BAD_KNOBS,
    ids=[f"{name}.{json.dumps(params)}" for _, name, params, _ in BAD_KNOBS],
)
def test_bad_system_and_topology_knobs_exit_2_before_any_cell_runs(
    field, name, params, named, verb, tmp_path, capsys
):
    entry = {"name": name, "params": params}
    if verb == "run":
        # A ``run`` flag spells an entry with params as its JSON text.
        argv = ["run", "--nodes", "8", "--blocks", "16"]
        argv += [{"systems": "--system", "topologies": "--topology"}[field]]
        argv += [json.dumps(entry)]
    else:
        default = {"systems": "bullet_prime", "topologies": "mesh"}[field]
        spec = {"nodes": [8], "blocks": [16], "seeds": [0], field: [default, entry]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["sweep", "--spec", str(path), "--workers", verb[-1]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    for text in named:
        assert text in captured.err
    assert "Traceback" not in captured.err
    assert "[1/" not in captured.err  # the valid default cell never ran
    assert captured.out == ""


def test_run_takes_system_and_topology_knobs_as_json_entries(capsys):
    argv = ["run", "--nodes", "6", "--blocks", "8", "--seed", "1", "--json"]
    argv += ["--system", '{"name": "bp", "params": {"fixed_outstanding": 9}}']
    argv += ["--topology", '{"name": "mesh", "params": {"max_loss": 0}}']
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["system"], doc["topology"]) == ("bullet_prime", "mesh")
    assert doc["system_params"] == {"fixed_outstanding": 9}
    assert doc["topology_params"] == {"max_loss": 0.0}
    assert doc["summary"]["finished"] is True
    assert main(argv[:8]) == 0  # at defaults the two fields are absent
    assert "_params" not in capsys.readouterr().out


# -- the in-domain fuzz (Bullet' under reno; not yet every system x model) -----


def _in_domain(param):
    """A strategy over ``param``'s domain: numeric draws stay within
    ``[default/4, 4*default]`` (tiny periods are in-domain but not in
    budget) plus each finite closed endpoint."""
    if param.kind == "bool":
        return st.booleans()
    if param.kind == "str":
        # A name (lossy.base) or a file (trace_replay.path): the default.
        return st.sampled_from(param.domain or (param.default,))
    if param._interval is None:
        return st.none() | st.integers(0, 3)  # a seed
    low, low_closed, high, high_closed = param._interval
    default = param.default
    if default is None:  # optional knobs: sized like the period they modulate
        default = 10.0
    lo, hi = max(low, default / 4), min(high, default * 4)
    if param.kind == "int":
        draws = st.integers(math.ceil(lo), math.floor(hi))
    else:
        draws = st.floats(
            lo,
            hi,
            exclude_min=lo == low and not low_closed,
            exclude_max=hi == high and not high_closed,
        )
    options = [draws] + [st.just(b) for b, closed, _ in _bounds(param) if closed]
    if param.nullable:
        options.append(st.none())
    return st.one_of(options)


@pytest.mark.parametrize("name", SCENARIOS.names())
def test_in_domain_settings_run_to_a_verdict(name):
    entry = SCENARIOS.get(name)
    system = SYSTEMS.get("bullet_prime")
    system_draws = {p.name: _in_domain(p) for p in system.params}
    # In domain but not in budget: a 1-byte block_size (its closed
    # endpoint) is ~10^6 events for even this 8-block file.
    system_draws["block_size"] = st.integers(1024, 65536)

    @settings(
        max_examples=4,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(
        knobs=st.fixed_dictionaries(
            {}, optional={p.name: _in_domain(p) for p in entry.params}
        ),
        system_knobs=st.fixed_dictionaries({}, optional=system_draws),
    )
    def run(knobs, system_knobs):
        try:
            scenario = entry.build(**knobs)
        except ValueError:
            return  # a cross-knob refusal (low > high, stop <= start) is a verdict
        result = run_experiment(
            mesh_topology(6, seed=1),
            system.builder(num_blocks=8, seed=1, **system_knobs),
            8,
            scenario=scenario,
            max_time=60.0,
            seed=1,
        )
        assert isinstance(result.summary()["finished"], bool)

    run()
