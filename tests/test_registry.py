"""Tests for the unified name registries."""

import pytest

from repro.harness.registry import (
    FLOW_MODELS,
    Param,
    Registry,
    SCENARIOS,
    SYSTEMS,
)
from repro.harness.sweep import TOPOLOGIES
from repro.scenarios import Scenario


class TestRegistryMechanics:
    def _reg(self):
        reg = Registry("thing")
        reg.register("alpha_beta", lambda: "ab", aliases=("ab",), description="d")
        reg.register("gamma", lambda x=1: x * 2)
        return reg

    def test_exact_and_alias_lookup(self):
        reg = self._reg()
        assert reg.get("alpha_beta").name == "alpha_beta"
        assert reg.get("ab").name == "alpha_beta"

    def test_normalized_lookup(self):
        reg = self._reg()
        # Case, dashes and underscores are ignored.
        assert reg.get("AlphaBeta").name == "alpha_beta"
        assert reg.get("alpha-beta").name == "alpha_beta"
        assert reg.get("ALPHA_BETA").name == "alpha_beta"

    def test_build_forwards_kwargs(self):
        reg = self._reg()
        assert reg.build("gamma", x=5) == 10

    def test_unknown_name_lists_available(self):
        reg = self._reg()
        with pytest.raises(KeyError, match="alpha_beta"):
            reg.get("nope")

    def test_duplicate_name_rejected(self):
        reg = self._reg()
        with pytest.raises(ValueError, match="duplicate thing name 'gamma'"):
            reg.register("gamma", lambda: None)
        # The original entry is untouched — nothing was overwritten.
        assert reg.build("gamma") == 2

    def test_colliding_alias_rejected(self):
        reg = self._reg()
        with pytest.raises(ValueError, match="collides"):
            reg.register("other", lambda: None, aliases=("ab",))

    def test_alias_colliding_with_name_rejected(self):
        reg = self._reg()
        # Collision is checked on the *normalized* form, so an alias
        # that only differs in case/underscores still collides.
        with pytest.raises(ValueError, match="collides"):
            reg.register("other", lambda: None, aliases=("Alpha-Beta",))

    def test_failed_registration_is_all_or_nothing(self):
        reg = self._reg()
        with pytest.raises(ValueError, match="collides"):
            reg.register("newthing", lambda: None, aliases=("fresh", "ab"))
        # Neither the name nor the non-colliding alias leaked in.
        assert "newthing" not in reg
        assert "fresh" not in reg
        assert reg.names() == ["alpha_beta", "gamma"]
        # And the name can be registered cleanly afterwards.
        reg.register("newthing", lambda: "ok", aliases=("fresh",))
        assert reg.build("fresh") == "ok"

    def test_contains_and_iteration(self):
        reg = self._reg()
        assert "ab" in reg
        assert "missing" not in reg
        assert list(reg) == ["alpha_beta", "gamma"]
        assert len(reg) == 2


class TestSystemsRegistry:
    def test_all_four_systems(self):
        assert SYSTEMS.names() == [
            "bittorrent",
            "bullet",
            "bullet_prime",
            "splitstream",
        ]

    def test_bulletprime_alias(self):
        assert SYSTEMS.get("bulletprime").name == "bullet_prime"
        assert SYSTEMS.get("bp").name == "bullet_prime"

    def test_builder_schema_is_the_config_class_params(self):
        from repro.core.bullet_prime import BulletPrimeConfig

        entry = SYSTEMS.get("bullet_prime")
        assert entry.params is BulletPrimeConfig.params
        assert SYSTEMS.get("bittorrent").params == ()
        # The file size and the seed are the cell's to supply, not knobs.
        assert not {"num_blocks", "seed"} & {p.name for p in entry.params}

    def test_knobs_beside_a_ready_config_are_refused_not_dropped(self):
        from repro.core.bullet_prime import BulletPrimeConfig
        from repro.harness.systems import bullet_prime_factory

        config = BulletPrimeConfig(num_blocks=8, fixed_outstanding=3)
        with pytest.raises(TypeError, match=r"\['fixed_outstanding', 'seed'\]"):
            bullet_prime_factory(config=config, fixed_outstanding=9, seed=2)
        assert callable(bullet_prime_factory(config=config))
        with pytest.raises(TypeError, match="unexpected knob.*'tree_fanout'"):
            bullet_prime_factory(tree_fanout=4)
        with pytest.raises(ValueError, match="'request_strategy' must be one of"):
            bullet_prime_factory(request_strategy="bogus")

    def test_other_missing_attributes_still_raise(self):
        from repro.harness import systems

        with pytest.raises(AttributeError, match="NOT_A_THING"):
            systems.NOT_A_THING


class TestScenariosRegistry:
    def test_catalogue_registered(self):
        assert SCENARIOS.names() == [
            "adversarial",
            "asymmetric_squeeze",
            "cascading_cuts",
            "chaos",
            "churn",
            "correlated_decreases",
            "crash",
            "crash_restart",
            "fail_slow",
            "flaky",
            "flash_crowd",
            "gilbert_elliott",
            "gray_chaos",
            "lossy",
            "none",
            "oscillate",
            "partition",
            "trace_replay",
        ]

    def test_every_entry_builds_a_scenario_with_defaults(self):
        for name in SCENARIOS.names():
            scenario = SCENARIOS.build(name)
            assert isinstance(scenario, Scenario), name

    def test_aliases(self):
        assert SCENARIOS.get("static").name == "none"
        assert SCENARIOS.get("cellular").name == "oscillate"
        assert SCENARIOS.get("trace").name == "trace_replay"


class TestParams:
    def test_kinds_validated(self):
        with pytest.raises(ValueError, match="kind"):
            Param("period", "duration")

    def test_coerce_by_kind(self):
        assert Param("p", "float").coerce("2.5") == 2.5
        assert Param("n", "int").coerce("4") == 4
        assert Param("s", "str").coerce(7) == "7"
        assert Param("b", "bool").coerce("true") is True
        assert Param("b", "bool").coerce(False) is False
        assert Param("p", "float").coerce(None) is None

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ValueError, match="expects float"):
            Param("p", "float").coerce("fast")
        with pytest.raises(ValueError, match="expects a bool"):
            Param("b", "bool").coerce("yes")

    @pytest.mark.parametrize("value", [2.7, True, "2.7", float("inf")])
    def test_int_coercion_is_lossless_or_refused(self, value):
        with pytest.raises(ValueError, match="expects int"):
            Param("n", "int").coerce(value)

    def test_integral_floats_are_ints(self):
        assert Param("n", "int").coerce(3.0) == 3

    @pytest.mark.parametrize("value", ["nan", float("nan")])
    def test_float_rejects_nan(self, value):
        with pytest.raises(ValueError, match="expects float"):
            Param("p", "float").coerce(value)

    def test_duplicate_param_names_rejected(self):
        class Twice:
            params = (Param("p", "float"), Param("p", "int"))

        reg = Registry("thing")
        with pytest.raises(ValueError, match="twice"):
            reg.register("x", Twice)

    def test_entry_param_lookup_and_coercion(self):
        class Thing:
            params = (Param("p", "float", default=1.0),)

        reg = Registry("thing")
        entry = reg.register("x", Thing)
        assert entry.params is Thing.params
        assert entry.param("p").default == 1.0
        assert entry.coerce_params({"p": "3"}) == {"p": 3.0}
        with pytest.raises(KeyError, match="no param 'q'"):
            entry.param("q")

    def test_scenario_catalogue_declares_its_knobs(self):
        assert {p.name for p in SCENARIOS.get("churn").params} >= {
            "period", "down_time", "fraction", "offline_capacity",
        }
        assert {p.name for p in SCENARIOS.get("oscillate").params} >= {
            "period", "low", "high", "wave",
        }
        assert {p.name for p in SCENARIOS.get("flash_crowd").params} >= {
            "ramp", "start",
        }
        # Declared defaults match the constructors' actual defaults.
        churn = SCENARIOS.build("churn")
        for param in SCENARIOS.get("churn").params:
            assert getattr(churn, param.name) == param.default, param.name


class TestLiveRegistriesAreHardened:
    """Registering a duplicate name or alias into the real registries
    must raise a clear error — never silently overwrite."""

    @pytest.mark.parametrize(
        "registry,name",
        [(SYSTEMS, "bullet_prime"), (SCENARIOS, "churn"),
         (TOPOLOGIES, "throttled_star"), (FLOW_MODELS, "bbr")],
        ids=["systems", "scenarios", "topologies", "flow_models"],
    )
    def test_duplicate_name_raises(self, registry, name):
        before = registry.get(name)
        with pytest.raises(ValueError, match=f"duplicate .* {name!r}"):
            registry.register(name, lambda: None)
        assert registry.get(name) is before

    @pytest.mark.parametrize(
        "registry,alias",
        [(SYSTEMS, "bp"), (SCENARIOS, "cellular"), (TOPOLOGIES, "mesh"),
         (FLOW_MODELS, "wanctl")],
        ids=["systems", "scenarios", "topologies", "flow_models"],
    )
    def test_colliding_alias_raises(self, registry, alias):
        with pytest.raises(ValueError, match="collides"):
            registry.register("shiny_new_thing", lambda: None, aliases=(alias,))
        assert "shiny_new_thing" not in registry


class TestFlowModelsRegistry:
    def test_catalogue_registered(self):
        assert FLOW_MODELS.names() == ["autorate", "bbr", "reno"]

    def test_aliases(self):
        assert FLOW_MODELS.get("tcp").name == "reno"
        assert FLOW_MODELS.get("mathis").name == "reno"
        assert FLOW_MODELS.get("wanctl").name == "autorate"
        assert FLOW_MODELS.get("cake_autorate").name == "autorate"

    def test_every_entry_builds_a_flow_model(self):
        from repro.sim.tcp import FlowModel

        for name in FLOW_MODELS.names():
            model = FLOW_MODELS.build(name)
            assert isinstance(model, FlowModel), name
            assert model.name == name

    def test_default_is_static_others_dynamic(self):
        assert FLOW_MODELS.build("reno").dynamic is False
        assert FLOW_MODELS.build("bbr").dynamic is True
        assert FLOW_MODELS.build("autorate").dynamic is True

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="bbr"):
            FLOW_MODELS.get("cubic")


class TestTopologiesRegistry:
    def test_families_registered(self):
        assert TOPOLOGIES.names() == [
            "constrained", "mesh", "planetlab", "star", "throttled_star"
        ]

    def test_subscript_is_the_builder(self):
        # How bench/workloads.py builds one: TOPOLOGIES[name](nodes, seed=seed).
        for name in TOPOLOGIES:
            assert len(TOPOLOGIES[name](5, seed=3).nodes) == 5
        with pytest.raises(KeyError, match="unknown topology 'torus'; available"):
            TOPOLOGIES["torus"]

    def test_knobs_reach_the_links_and_are_held_to_their_domains(self):
        star = TOPOLOGIES["star"](3, core_delay=0.25)
        assert star.core[(0, 1)].delay == 0.25
        with pytest.raises(ValueError, match=r"'max_loss' must be in \[0, 1\)"):
            TOPOLOGIES["mesh"](3, max_loss=1.5)
        with pytest.raises(TypeError, match="core_bw"):
            TOPOLOGIES["star"](3, core_bw=1.0)

    def test_throttled_star_slows_every_link_into_the_last_node(self):
        topo = TOPOLOGIES["throttled_star"](8)
        into_last = [topo.core[(src, 7)] for src in range(7)]
        assert all(link.delay == 0.1 for link in into_last)
        assert into_last[0].capacity < into_last[1].capacity < topo.core[(1, 2)].capacity
