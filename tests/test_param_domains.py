"""Every knob's legal values are declared once, on its ``Param``.

Three contracts: the schema (each registered scenario / flow-model
``Param`` carries a domain its default lies in), the refusal (a value
just outside a finite bound is refused wherever values enter —
``Param.coerce``, the class constructor, ``SweepSpec`` — and the bound
itself is legal exactly when its bracket is closed), and the in-domain
fuzz (any setting drawn inside the domains runs to a verdict).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.params import Param, with_defaults
from repro.harness.experiment import run_experiment
from repro.harness.registry import FLOW_MODELS, SCENARIOS, SYSTEMS
from repro.harness.sweep import SweepSpec
from repro.sim.topology import mesh_topology

PARAMS = [
    pytest.param(registry, entry, param, id=f"{name}.{param.name}")
    for registry in (SCENARIOS, FLOW_MODELS)
    for name, entry in registry.items()
    for param in entry.params
]


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
            entry.build(**{param.name: None})
        else:
            for enter in (param.coerce, lambda v: entry.build(**{param.name: v})):
                with pytest.raises(ValueError, match=f"'{param.name}' must be"):
                    enter(None)


@pytest.mark.parametrize(
    "registry, entry, param", [p for p in PARAMS if p.values[2]._interval]
)
def test_bounds_are_enforced_wherever_values_enter(registry, entry, param):
    entries = [param.coerce, lambda v: entry.build(**{param.name: v})]
    if registry is SCENARIOS:
        entries.append(
            lambda v: SweepSpec(
                scenarios=[{"name": entry.name, "params": {param.name: v}}]
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

    def test_constructor_checks_without_coercing(self):
        churn = SCENARIOS.get("churn").builder
        assert churn(period=20).period == 20  # an int stays an int
        for bad in (0, float("nan"), float("inf"), "soon"):
            with pytest.raises(ValueError, match=r"'period' must be in \(0, inf\)"):
                churn(period=bad)


# -- the in-domain fuzz (the seed of ROADMAP item 2's fuzzer) ------------------


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
        )
    )
    def run(knobs):
        try:
            scenario = entry.build(**knobs)
        except ValueError:
            return  # a cross-knob refusal (low > high, stop <= start) is a verdict
        result = run_experiment(
            mesh_topology(6, seed=1),
            SYSTEMS.get("bullet_prime").builder(num_blocks=8, seed=1),
            8,
            scenario=scenario,
            max_time=60.0,
            seed=1,
        )
        assert isinstance(result.summary()["finished"], bool)

    run()
