"""Experiment harness.

- :mod:`repro.harness.registry` — the unified name registries:
  :data:`~repro.harness.registry.SYSTEMS`,
  :data:`~repro.harness.registry.SCENARIOS`,
  :data:`~repro.harness.registry.FLOW_MODELS`.  Everything else resolves
  names through these.
- :mod:`repro.harness.experiment` — generic runner: topology + system +
  optional dynamic scenario -> completion-time CDF and traces.
- :mod:`repro.harness.sweep` — declarative parameter sweeps over the
  whole matrix (systems x scenarios x knobs x topologies x scales x
  seeds) on a multiprocess worker pool; bit-identical results for any
  worker count.  Its JSONL store is also the golden fence:
  ``tests/data/golden_matrix.jsonl`` pins every summary field and work
  counter of the 288-cell acceptance matrix.
- :mod:`repro.harness.compare` — paired-comparison analytics over
  sweep stores (league tables vs a baseline, paired Student-t CIs).
- :mod:`repro.harness.workloads` — file and delta workload generators.
- :mod:`repro.harness.figures` — one entry point per paper figure.
- :mod:`repro.harness.report` — text rendering of figure data.
"""

from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.figures import FIGURES, run_figure
from repro.harness.registry import SCENARIOS, SYSTEMS
from repro.harness.sweep import StoreView, SweepSpec, run_sweep

__all__ = [
    "StoreView",
    "ExperimentResult",
    "run_experiment",
    "FIGURES",
    "run_figure",
    "SYSTEMS",
    "SCENARIOS",
    "SweepSpec",
    "run_sweep",
]
