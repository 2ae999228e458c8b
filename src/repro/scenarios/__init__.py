"""Composable dynamic-network scenarios.

The paper's thesis is that dissemination must survive *dynamic* network
conditions; this package is the vocabulary for scripting them.  A
:class:`Scenario` declaratively describes how the emulated network
changes over time and installs into any simulation via a
:class:`ScenarioContext`; instances are pure configuration and freely
re-installable.  An installed scenario runs for the rest of the
simulation: ``install`` schedules its events and returns nothing.

The catalogue is registered in :data:`repro.harness.registry.SCENARIOS`;
``python -m repro list`` prints every scenario with its aliases, knobs
and defaults (``--json`` adds kinds and descriptions), read off the
classes' own ``params`` declarations.

Scenarios actuate the full link-condition engine — capacity, loss rate,
and delay, per direction (see :mod:`repro.sim.links`).  :func:`compose`
and :func:`lossy` build compound conditions; :class:`TraceReplay`
imposes a measured or written-out link schedule.  ``run_experiment``
accepts Scenario instances or registry names.
"""

from repro.scenarios.base import Scenario, ScenarioContext
from repro.scenarios.catalog import (
    CascadingCuts,
    Churn,
    CorrelatedDecreases,
    FlashCrowd,
    Oscillate,
    Static,
)
from repro.scenarios.combinators import Compose, compose
from repro.scenarios.dynamics import (
    AsymmetricSqueeze,
    GilbertElliott,
    Lossy,
    lossy,
)
from repro.scenarios.failures import (
    Adversarial,
    Chaos,
    Crash,
    CrashRestart,
    FailSlow,
    Flaky,
    GrayChaos,
    Partition,
)
from repro.scenarios.tracefile import TraceReplay, read_csv_trace, read_trace

__all__ = [
    "Scenario",
    "ScenarioContext",
    "Static",
    "CorrelatedDecreases",
    "CascadingCuts",
    "Oscillate",
    "FlashCrowd",
    "Churn",
    "GilbertElliott",
    "AsymmetricSqueeze",
    "Lossy",
    "Crash",
    "CrashRestart",
    "Partition",
    "Chaos",
    "FailSlow",
    "Flaky",
    "Adversarial",
    "GrayChaos",
    "TraceReplay",
    "read_csv_trace",
    "read_trace",
    "Compose",
    "compose",
    "lossy",
]

# -- registration -------------------------------------------------------------
#
# Kept last: importing the registry may (re-)enter this package while it
# is mid-import, and by this point every public name above exists.  Each
# class carries its own name and knob schema (``params``); only the
# listing text and aliases are said here.

from repro.harness.registry import SCENARIOS  # noqa: E402

for _builder, _description, _aliases in (
    (Static, "static network, no dynamic conditions (control case)",
     ("static",)),
    (CorrelatedDecreases,
     "paper sec. 4.1: periodic correlated bandwidth cuts",
     ("correlated", "bandwidth_cuts")),
    (CascadingCuts,
     "paper Fig. 12: one more sender link throttled per period",
     ("cascade",)),
    (Oscillate, "cellular/5G-style high-frequency capacity oscillation",
     ("oscillation", "cellular")),
    (FlashCrowd, "staggered receiver joins over a ramp interval",
     ("staggered_joins",)),
    (Churn, "nodes lose connectivity and rejoin (network-level churn)", ()),
    (TraceReplay,
     "drive link conditions from a (time, bw[, loss, delay]) trace",
     ("trace",)),
    (GilbertElliott,
     "two-state (Gilbert-Elliott) bursty loss on every core link",
     ("bursty_loss",)),
    (AsymmetricSqueeze,
     "periodic capacity cuts on receiver uplinks only (asymmetric)",
     ("uplink_squeeze",)),
    (Crash, "seeded permanent node kills (silent crash-stop failures)",
     ("failures",)),
    (CrashRestart, "nodes crash silently, then rejoin with all state lost",
     ("restart",)),
    (Partition, "split the topology into islands for a window, then heal",
     ("split",)),
    (Chaos, "seeded composite crash/restart/partition fault stream", ()),
    (FailSlow, "gray stragglers: uplink squeeze plus stretched timers",
     ("straggler",)),
    (Flaky, "intermittent heavy-loss (gray-link) windows on access links",
     ("gray_links",)),
    (Adversarial,
     "message duplication, bounded reordering, payload corruption",
     ("byzantine_links",)),
    (GrayChaos, "chaos plus fail-slow/flaky events and message adversity",
     ()),
    (Lossy, "overlay a loss schedule on any other scenario",
     ("loss_overlay",)),
):
    SCENARIOS.register(
        _builder.name, _builder, description=_description, aliases=_aliases
    )
