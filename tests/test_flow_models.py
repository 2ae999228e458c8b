"""The pluggable flow-model axis: interface, models, and plumbing.

Three layers of coverage:

- **Reno bit-identity** — the API redesign's keystone: the default
  model, the explicit ``"reno"`` name, and a hand-built
  :class:`~repro.sim.tcp.TcpModel` instance produce byte-identical
  summaries *including perf counters* over cells drawn from the golden
  matrix domain (the 288-cell matrix itself is re-checked against the
  recorded goldens by ``test_scenario_matrix.py``).
- **Model mechanics** — the BBR windowed-max filter, gain cycle, and
  inflight bound; the autorate state machine's fast-backoff /
  slow-recovery asymmetry — exercised directly on stub flows through
  the batched ``dynamic_caps`` / ``observe_rates`` hooks, whose inlined
  slow-start ramp must equal ``FlowModel.slow_start_cap_at`` bit for
  bit.
- **Plumbing** — registry validation at spec time, sweep determinism at
  1/2/4 workers for the dynamic models, condition-key compatibility,
  and the CLI surfaces.
"""

import json
import math
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiment import run_experiment
from repro.harness.registry import FLOW_MODELS, SCENARIOS, SYSTEMS
from repro.harness.sweep import SweepCell, SweepSpec, run_sweep
from repro.common.params import Param
from repro.sim.flow_models import (
    BACKOFF,
    CONTROL_INTERVAL,
    CWND_GAIN,
    FLOOR_FRAC,
    GAINS,
    PHASE_TIME,
    RECOVERY_TICKS,
    RED_DELTA,
    RED_LOSS,
    STEP_FRAC,
    WINDOW,
    YELLOW_DELTA,
    YELLOW_LOSS,
    AutorateModel,
    BbrModel,
)
from repro.sim.tcp import MIN_RTO, MSS, RAMP_INITIAL_SEGMENTS, FlowModel, TcpModel
from repro.sim.topology import mesh_topology

N = 8
NB = 24
MAX_TIME = 900.0


def _run(system="bullet_prime", scenario="gilbert_elliott", seed=1,
         flow_model=None):
    entry = SYSTEMS.get(system)
    return run_experiment(
        mesh_topology(N, seed=seed),
        entry.builder(num_blocks=NB, seed=seed),
        NB,
        scenario=SCENARIOS.build(scenario),
        max_time=MAX_TIME,
        seed=seed,
        flow_model=flow_model,
    )


class TestRenoBitIdentity:
    """``flow_model=None`` ≡ ``"reno"`` ≡ ``TcpModel()`` — including the
    perf counters, i.e. the allocator executes the same work, not just
    reaches the same answers."""

    @settings(max_examples=6, deadline=None)
    @given(
        system=st.sampled_from(sorted(SYSTEMS.names())),
        scenario=st.sampled_from(
            ["none", "oscillate", "gilbert_elliott", "churn", "flaky"]
        ),
        seed=st.sampled_from([1, 3, 5, 7]),
    )
    def test_reno_spellings_are_bit_identical(self, system, scenario, seed):
        default = _run(system, scenario, seed).summary()
        named = _run(system, scenario, seed, flow_model="reno").summary()
        instance = _run(system, scenario, seed, flow_model=TcpModel()).summary()
        assert default == named == instance

    def test_alias_resolves_to_the_same_model(self):
        named = _run(seed=3, flow_model="reno").summary()
        aliased = _run(seed=3, flow_model="mathis").summary()
        assert named == aliased


class TestFlowModelInterface:
    def test_abstract_steady_state_cap(self):
        with pytest.raises(NotImplementedError):
            FlowModel().steady_state_cap([])

    def test_tcp_model_is_the_reno_entry(self):
        entry = FLOW_MODELS.get("reno")
        assert isinstance(entry.build(), TcpModel)

    def test_steady_state_cap_aliases_mathis_cap(self):
        model = TcpModel()
        link = types.SimpleNamespace(loss_rate=0.01, delay=0.02)
        links = [link, link]
        assert model.steady_state_cap(links) == model.mathis_cap(links)

    def test_dynamic_models_have_infinite_static_cap(self):
        links = [types.SimpleNamespace(loss_rate=0.05, delay=0.02)]
        assert BbrModel().steady_state_cap(links) == math.inf
        assert AutorateModel().steady_state_cap(links) == math.inf


#: Each flow-model constant: its value, its kind and its legal values
#: in ``Param`` bracket notation.  The models' arithmetic assumes each.
CONSTANTS = {
    "MSS": (MSS, "int", "[1, inf)"),
    "MIN_RTO": (MIN_RTO, "float", "[0, inf)"),
    "RAMP_INITIAL_SEGMENTS": (RAMP_INITIAL_SEGMENTS, "int", "[1, inf)"),
    "WINDOW": (WINDOW, "float", "(0, inf)"),
    "GAINS[0]": (GAINS[0], "float", "(0, inf)"),
    "GAINS[1]": (GAINS[1], "float", "(0, inf)"),
    "CWND_GAIN": (CWND_GAIN, "float", "(0, inf)"),
    "PHASE_TIME": (PHASE_TIME, "float", "(0, inf)"),
    "CONTROL_INTERVAL": (CONTROL_INTERVAL, "float", "(0, inf)"),
    "YELLOW_DELTA": (YELLOW_DELTA, "float", "(0, inf)"),
    "RED_DELTA": (RED_DELTA, "float", "(0, inf)"),
    "YELLOW_LOSS": (YELLOW_LOSS, "float", "(0, 1]"),
    "RED_LOSS": (RED_LOSS, "float", "(0, 1]"),
    "BACKOFF": (BACKOFF, "float", "(0, 1)"),
    "FLOOR_FRAC": (FLOOR_FRAC, "float", "[0, 1]"),
    "STEP_FRAC": (STEP_FRAC, "float", "(0, 1]"),
    "RECOVERY_TICKS": (RECOVERY_TICKS, "int", "[1, inf)"),
}


class TestConstants:
    @pytest.mark.parametrize("name", CONSTANTS)
    def test_constant_lies_in_its_domain(self, name):
        value, kind, domain = CONSTANTS[name]
        # A true int where the arithmetic counts (autorate's GREEN streak).
        assert type(value) is {"int": int, "float": float}[kind]
        assert Param(name, kind, value, "", domain).check(value) == value

    def test_thresholds_and_gains_are_ordered(self):
        # YELLOW is reachable only below RED, and the gain cycle probes
        # above the estimate, drains below it, then cruises at it.
        assert YELLOW_LOSS < RED_LOSS
        assert YELLOW_DELTA < RED_DELTA
        assert GAINS[1] < 1.0 < GAINS[0]
        assert GAINS[2:] == (1.0,) * 6


def _stub_flow(rtt=0.1, loss=0.0, started_at=-math.inf):
    # Started infinitely long ago unless asked: the slow-start ramp is
    # then ``inf`` and the model's own bound is the whole cap.
    return types.SimpleNamespace(
        rtt=rtt,
        loss=loss,
        started_at=started_at,
        mathis_cap=math.inf,
        model_state=None,
        _cap=None,
    )


def _cap(model, flow, now):
    """One flow's cap through the batched hook, as a one-flow component."""
    model.dynamic_caps([flow], now)
    return flow._cap


def _observe(model, flow, rate, now):
    model.observe_rates([flow], [rate], now)


class TestBatchedHooks:
    @pytest.mark.parametrize("model_cls", [BbrModel, AutorateModel])
    def test_the_inlined_ramp_is_slow_start_cap_at(self, model_cls):
        """Before any delivery sample both models are unbounded, so the
        cap is the slow-start ramp — bit for bit the base class's."""
        model = model_cls()
        for rtt in (0.0, 5e-5, 1e-4, 0.013, 0.1, 0.37):
            for age in (0.0, 0.001, 0.05, 0.4, 2.0, 1e3):
                flow = _stub_flow(rtt=rtt, started_at=0.0)
                model.flow_started(flow, now=0.0)
                assert _cap(model, flow, age) == model.slow_start_cap_at(rtt, age)

    @pytest.mark.parametrize("model_cls", [BbrModel, AutorateModel])
    def test_a_component_is_priced_flow_by_flow(self, model_cls):
        """One call over a component sets the caps that one call per
        flow sets: the batch shares no state between its flows."""
        model = model_cls()
        specs = [(0.1, 0.0, 1e6), (0.05, 0.1, 4e5), (0.3, 0.02, 2e5), (0.1, 0.0, 0.0)]
        batched, single = [], []
        for flows in (batched, single):
            for rtt, loss, rate in specs:
                flow = _stub_flow(rtt=rtt, loss=loss, started_at=0.0)
                model.flow_started(flow, now=0.0)
                flows.append(flow)
            model.observe_rates(flows, [spec[2] for spec in specs], now=0.0)
        for now in (0.3, 1.7, 6.2):
            model.dynamic_caps(batched, now)
            for flow in single:
                model.dynamic_caps([flow], now)
            assert [f._cap for f in batched] == [f._cap for f in single]


class TestBbrMechanics:
    def test_btlbw_is_the_windowed_max(self):
        # Rates are bytes/second and must sit above the one-segment-per-
        # RTT floor (mss/rtt = 14.6 kB/s at rtt 0.1) to exercise the
        # estimator rather than the floor.
        model = BbrModel()
        flow = _stub_flow()
        model.flow_started(flow, now=0.0)
        _observe(model, flow, 1e6, now=0.0)
        _observe(model, flow, 6e5, now=1.0)
        # Inside the window the old maximum rules.
        cap = _cap(model, flow, now=0.6)  # phase 2: gain 1.0
        assert cap == pytest.approx(1e6)
        # Once the 1e6 sample ages out, the filter forgets it.
        _observe(model, flow, 6e5, now=10.5)
        cap = _cap(model, flow, now=10.6)  # phase 42 % 8 = 2
        assert cap == pytest.approx(6e5)

    def test_gain_cycle_probes_and_drains(self):
        model = BbrModel()
        flow = _stub_flow()
        model.flow_started(flow, now=0.0)
        _observe(model, flow, 1e6, now=0.0)
        assert _cap(model, flow, now=0.0) == pytest.approx(1.25e6)
        assert _cap(model, flow, now=0.30) == pytest.approx(0.75e6)
        assert _cap(model, flow, now=0.60) == pytest.approx(1e6)

    def test_inflight_bound_shrinks_when_delay_inflates(self):
        model = BbrModel()
        flow = _stub_flow(rtt=0.1)
        model.flow_started(flow, now=0.0)
        _observe(model, flow, 1e6, now=0.0)
        # Path delay quadruples: min_rtt/rtt = 1/4, bound = 2*1e6/4.
        flow.rtt = 0.4
        model.path_refreshed(flow, now=0.1)
        cap = _cap(model, flow, now=0.6)  # cruise phase
        assert cap == pytest.approx(5e5)

    def test_no_samples_means_unbounded(self):
        model = BbrModel()
        flow = _stub_flow()
        model.flow_started(flow, now=0.0)
        assert _cap(model, flow, now=0.0) == math.inf

    def test_zero_delivery_floors_at_one_segment_per_rtt(self):
        model = BbrModel()
        flow = _stub_flow(rtt=0.1)
        model.flow_started(flow, now=0.0)
        _observe(model, flow, 0.0, now=0.0)
        assert _cap(model, flow, now=0.6) == MSS / 0.1

    def test_loss_never_enters_the_cap(self):
        model = BbrModel()
        lossless = _stub_flow(loss=0.0)
        lossy = _stub_flow(loss=0.2)
        for flow in (lossless, lossy):
            model.flow_started(flow, now=0.0)
            _observe(model, flow, 1e6, now=0.0)
        assert _cap(model, lossless, 0.6) == _cap(model, lossy, 0.6)


def _mid_tick(k):
    """The middle of control tick ``k``: exactly ``k`` ticks after 0, with
    no float division landing on a tick boundary."""
    return (k + 0.5) * CONTROL_INTERVAL


class TestAutorateMechanics:
    def _primed_flow(self, model, loss=0.0, rtt=0.1, max_rate=1e6):
        flow = _stub_flow(rtt=rtt, loss=loss)
        model.flow_started(flow, now=0.0)
        _observe(model, flow, max_rate, now=0.0)
        return flow

    def test_unshaped_until_congestion(self):
        model = AutorateModel()
        flow = self._primed_flow(model)
        assert _cap(model, flow, now=_mid_tick(100)) == math.inf

    def test_red_loss_backs_off_immediately(self):
        model = AutorateModel()
        flow = self._primed_flow(model, loss=0.1)
        # One RED tick: inf -> max_rate, then one halving.
        assert _cap(model, flow, now=_mid_tick(1)) == pytest.approx(5e5)

    def test_sustained_red_clamps_at_the_floor(self):
        model = AutorateModel()
        flow = self._primed_flow(model, loss=0.1)
        assert _cap(model, flow, now=_mid_tick(50)) == pytest.approx(FLOOR_FRAC * 1e6)

    def test_red_rtt_delta_triggers_too(self):
        model = AutorateModel()
        flow = self._primed_flow(model, rtt=0.1)
        flow.rtt = 0.2  # +100 ms over baseline
        model.path_refreshed(flow, now=_mid_tick(0))
        assert _cap(model, flow, now=_mid_tick(1)) < math.inf

    def test_yellow_holds_without_backing_off(self):
        model = AutorateModel()
        # Between the YELLOW (0.01) and RED (0.04) loss thresholds.
        flow = self._primed_flow(model, loss=0.02)
        assert _cap(model, flow, now=_mid_tick(100)) == math.inf

    def test_recovery_is_slow_and_stepped(self):
        model = AutorateModel()
        flow = self._primed_flow(model, loss=0.1)
        backed_off = _cap(model, flow, now=_mid_tick(1))
        flow.loss = 0.0  # congestion clears
        # Four GREEN ticks: not yet a full streak, cap holds.
        assert _cap(model, flow, now=_mid_tick(5)) == backed_off
        # The fifth completes a streak: one additive step up.
        stepped = _cap(model, flow, now=_mid_tick(6))
        assert stepped == pytest.approx(backed_off + STEP_FRAC * 1e6)
        # Enough streaks recover past max_rate and unshape entirely.
        assert _cap(model, flow, now=_mid_tick(80)) == math.inf

    def test_backoff_asymmetry(self):
        """Coming down is one tick; coming back is five GREEN ticks per
        step — the wanctl asymmetry in one number: recovery takes
        longer than collapse."""
        model = AutorateModel()
        flow = self._primed_flow(model, loss=0.1)
        down = _cap(model, flow, now=_mid_tick(1))  # 1 tick: halved
        assert down == pytest.approx(5e5)
        flow.loss = 0.0
        # Recovering the same 5e5 at 0.05*1e6 per 5 ticks needs 50 ticks.
        assert _cap(model, flow, now=_mid_tick(26)) < 1e6
        assert _cap(model, flow, now=_mid_tick(52)) == math.inf


class TestSpecValidation:
    def test_unknown_flow_model_rejected_at_spec_time(self):
        with pytest.raises(KeyError, match="unknown flow model 'cubic'"):
            SweepSpec(flow_models=("cubic",))

    def test_unknown_flow_model_rejected_at_cell_time(self):
        with pytest.raises(KeyError, match="unknown flow model"):
            SweepCell(
                "bullet_prime", "none", {}, "mesh", 8, 24, 1, 900.0,
                flow_model="cubic",
            )

    def test_unknown_flow_model_rejected_by_run_experiment(self):
        with pytest.raises(KeyError, match="unknown flow model"):
            _run(flow_model="cubic")

    def test_spec_canonicalizes_aliases(self):
        spec = SweepSpec(flow_models=("wanctl", "bbr_style"))
        assert spec.flow_models == ["autorate", "bbr"]

    def test_spec_roundtrips_through_dict(self):
        spec = SweepSpec(flow_models=("bbr", "reno"))
        again = SweepSpec.from_dict(spec.to_dict())
        assert again.flow_models == ["bbr", "reno"]

    def test_expansion_crosses_flow_models(self):
        spec = SweepSpec(
            systems=("bullet_prime",),
            scenarios=("none",),
            flow_models=("reno", "bbr"),
            seeds=(1, 2),
        )
        keys = [cell.key() for cell in spec.expand()]
        assert keys == [
            "bullet_prime|none|mesh|n8|b24|s1",
            "bullet_prime|none|mesh|n8|b24|s2",
            "bullet_prime|none|mesh|n8|b24|fm=bbr|s1",
            "bullet_prime|none|mesh|n8|b24|fm=bbr|s2",
        ]


class TestConditionKeyCompat:
    def _cell(self, flow_model="reno"):
        return SweepCell(
            "bullet_prime", "oscillate", {"period": 4.0}, "mesh", 8, 24, 1,
            900.0, flow_model=flow_model,
        )

    def test_reno_keys_are_byte_identical_to_pre_axis_keys(self):
        assert (
            self._cell().condition_key() == "oscillate[period=4.0]|mesh|n8|b24"
        )

    def test_non_default_models_render_a_key_field(self):
        assert (
            self._cell("bbr").condition_key()
            == "oscillate[period=4.0]|mesh|n8|b24|fm=bbr"
        )

    def test_aliases_render_canonical_keys(self):
        assert self._cell("wanctl").condition_key().endswith("|fm=autorate")

    def test_old_records_without_the_field_load_as_reno(self):
        doc = self._cell().to_dict()
        del doc["flow_model"]
        cell = SweepCell.from_dict(doc)
        assert cell.flow_model == "reno"
        assert cell.key() == self._cell().key()


class TestDynamicModelDeterminism:
    """bbr/autorate sweeps are bit-identical at any worker count."""

    def _spec(self, flow_model):
        return SweepSpec(
            systems=("bullet_prime",),
            scenarios=("gilbert_elliott", "oscillate"),
            flow_models=(flow_model,),
            nodes=(N,),
            blocks=(NB,),
            seeds=(1, 3),
            max_time=MAX_TIME,
        )

    @pytest.mark.parametrize("flow_model", ["bbr", "autorate"])
    def test_worker_count_cannot_perturb_results(self, flow_model):
        spec = self._spec(flow_model)
        stores = {
            workers: run_sweep(spec, workers=workers).to_jsonl()
            for workers in (1, 2, 4)
        }
        assert stores[1] == stores[2] == stores[4]

    def test_dynamic_models_actually_diverge_from_reno(self):
        # Guard against the axis silently not being plumbed through: at
        # least one summary metric must differ under a dynamic model.
        reno = _run(seed=1, flow_model="reno").summary()
        bbr = _run(seed=1, flow_model="bbr").summary()
        assert reno != bbr


class TestCliSurfaces:
    def test_list_json_has_a_flow_models_section(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in doc["flow_models"]]
        assert names == ["reno", "bbr", "autorate"]
        # A run names its flow model and nothing more: no knobs.
        assert [entry["params"] for entry in doc["flow_models"]] == [[], [], []]

    def test_run_rejects_unknown_flow_model(self, capsys):
        from repro.__main__ import main

        assert main(["run", "--flow-model", "cubic", "--nodes", "6"]) == 2
        assert "unknown flow model" in capsys.readouterr().err

    def test_sweep_flow_model_flag(self, capsys, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "store.jsonl"
        code = main([
            "sweep", "--systems", "bullet_prime", "--scenarios", "none",
            "--flow-model", "bbr", "--nodes", str(N), "--blocks", str(NB),
            "--seeds", "1", "--max-time", str(MAX_TIME), "--quiet",
            "--out", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["cell"]["flow_model"] == "bbr"
        assert record["key"].endswith("|fm=bbr|s1")
