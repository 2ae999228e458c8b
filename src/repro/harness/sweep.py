"""Parallel parameter sweeps over the experiment matrix.

A sweep is a declarative grid — systems x scenarios x flow models x
topologies (each of those three with its own parameter grid) x node
counts x block counts x seeds — expanded into independent *cells*, each
one exactly the experiment
:func:`repro.harness.experiment.run_experiment` would run by hand.
The dimensions are declared once, in :data:`AXES`; the spec, the cells'
nesting order and the ``run``/``sweep`` command lines all read that table.
Cells execute serially or across a multiprocess worker pool; because
every cell is a self-contained deterministic simulation seeded only by
its own spec fields, the merged output is **bit-identical regardless of
worker count or completion order**.  That invariant is what lets the
golden store (``tests/data/golden_matrix.jsonl``, the serial
:func:`golden_matrix_spec` store) be checked against a parallel run.

Outputs:

- a JSONL results store (one canonical-order line per cell, no
  wall-clock fields, ``sort_keys`` JSON — so two runs of the same spec
  produce byte-identical files), and
- aggregate statistics (mean/median/stddev/confidence interval via
  :func:`repro.common.stats.aggregate`) grouped over seeds, keyed by
  canonical registry names.

CLI: ``python -m repro sweep`` (see ``--help``) accepts a JSON spec
file and/or flag-level grids, ``--workers N``, and writes the JSONL
store with ``--out``.
"""

import gc
import itertools
import json
import multiprocessing
from collections import namedtuple

from repro.common import stats
from repro.common.params import Param
from repro.harness.experiment import run_experiment
from repro.harness.registry import FLOW_MODELS, SCENARIOS, SYSTEMS, Registry
from repro.sim.topology import (
    constrained_access_topology,
    mesh_topology,
    planetlab_like_topology,
    star_topology,
    throttled_star_topology,
)

__all__ = [
    "AXES",
    "TOPOLOGIES",
    "StoreView",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "execute_cell",
    "golden_matrix_spec",
    "record_cell",
    "reduce_cell",
    "run_cell",
    "run_sweep",
]

#: Topology families runnable from specs and the CLI, each called as
#: ``TOPOLOGIES[name](num_nodes, seed=0, **knobs)``.
TOPOLOGIES = Registry("topology")
for _name, _builder, _description in (
    ("mesh", mesh_topology, "the paper's lossy full mesh (section 4.1)"),
    ("constrained", constrained_access_topology, "Figure 9: 800 Kbps access links"),
    ("planetlab", planetlab_like_topology, "synthetic wide-area stand-in (Figure 14)"),
    ("star", star_topology, "dedicated clean per-pair links (Figure 10)"),
    ("throttled_star", throttled_star_topology, "Figure 12: last node behind slow links"),
):
    TOPOLOGIES.register(_name, _builder, description=_description)


def _key_value(kind, knob, value):
    """JSON round-trip a ``kind`` ("system", "scenario", "topology")
    param value so cell keys and JSONL records are identical whether the
    spec came from a file or from Python."""
    value = json.loads(json.dumps(value))
    # '|' is the cell-key field separator; a param value containing it
    # (a trace path, a lossy base spec, ...) would render keys that are
    # ambiguous to every key consumer.  Rejected — at spec-validation
    # time — rather than escaped: an escape scheme would silently change
    # the key of every cell already recorded in golden stores.
    if "|" in f"{knob}={json.dumps(value)}":
        raise ValueError(
            f"{kind} param {knob}={value!r} renders with '|', the "
            "cell-key field separator; use a value without '|' "
            "(e.g. rename the file for trace_replay's 'path')"
        )
    return value


def _key_params(kind, params):
    """A cell's ``{kind}_params``: sorted-knob order, key-ready values."""
    return {knob: _key_value(kind, knob, params[knob]) for knob in sorted(params)}


def _with_params(name, params):
    """``name[knob=value,...]`` — or the bare name without params."""
    rendered = ",".join(f"{k}={json.dumps(v)}" for k, v in params.items())
    return name + (f"[{rendered}]" if rendered else "")


class SweepCell(
    namedtuple(
        "SweepCell",
        "system scenario scenario_params topology nodes blocks seed max_time "
        "tree_fanout flow_model system_params topology_params",
        defaults=(4, "reno", {}, {}),
    )
):
    """One fully-resolved experiment: the atom a sweep executes, and
    the whole of what ``repro run`` runs.

    ``system_params``, ``scenario_params`` and ``topology_params`` are
    plain dicts in sorted-key order holding the knobs the spec named;
    all names are canonical registry names.  Cells are immutable value
    objects — they round-trip through :meth:`to_dict`/:meth:`from_dict`
    (how they cross the process boundary to pool workers).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cell = super().__new__(cls, *args, **kwargs)
        # The flow model is canonicalized through the registry so
        # aliases ("wanctl") and the canonical name render identical
        # cell keys, and an unknown model fails here — at spec/record
        # time — with the registry's clear "available: [...]" error.
        return cell._replace(
            system_params=_key_params("system", cell.system_params),
            scenario_params=_key_params("scenario", cell.scenario_params),
            topology_params=_key_params("topology", cell.topology_params),
            flow_model=FLOW_MODELS.get(cell.flow_model).name,
        )

    def system_key(self):
        """The system with the knobs the spec set on it, e.g.
        ``bullet_prime[fixed_outstanding=9]`` — what ``repro compare``
        ranks.  A system at its defaults is its bare name."""
        return _with_params(self.system, self.system_params)

    def condition_key(self):
        """Cell identity minus system and seed — everything a paired
        comparison holds fixed, e.g. ``oscillate[period=4.0]|mesh|n8|b24``.

        What was added to cells after stores were first recorded joins
        the key **only when it is not the default** — topology knobs as
        a ``mesh[max_loss=0.0]`` suffix like the scenario's, the flow
        model as a ``|fm=<model>`` field unless it is ``reno`` — so
        every key ever rendered stays byte-identical (golden stores,
        compare fixtures), while non-default cells can never pair with
        default ones.
        """
        scenario = _with_params(self.scenario, self.scenario_params)
        topology = _with_params(self.topology, self.topology_params)
        key = f"{scenario}|{topology}|n{self.nodes}|b{self.blocks}"
        if self.flow_model != "reno":
            key += f"|fm={self.flow_model}"
        return key

    def group_key(self):
        """The key minus the seed: cells sharing it aggregate together."""
        return f"{self.system_key()}|{self.condition_key()}"

    def key(self):
        """Canonical cell identity, e.g.
        ``bullet_prime|oscillate[period=4.0]|mesh|n8|b24|s1``."""
        return f"{self.group_key()}|s{self.seed}"

    def to_dict(self):
        """Plain-data form.  The two param fields newer than the oldest
        stores are left out when empty, so a default cell's record is
        byte-identical to the one those stores hold."""
        doc = self._asdict()
        for field in ("system_params", "topology_params"):
            if not doc[field]:
                del doc[field]
        return doc

    @classmethod
    def from_dict(cls, doc):
        return cls(**doc)

    def __repr__(self):
        return f"SweepCell({self.key()!r})"


def _as_list(value, what):
    if isinstance(value, (str, int, float, dict)):
        return [value]
    try:
        values = list(value)
    except TypeError:
        raise ValueError(
            f"sweep spec: {what} must be a value or a list of values, "
            f"got {value!r}"
        ) from None
    if not values:
        raise ValueError(f"sweep spec: {what} must not be empty")
    return values


# -- axis checks: one value in, its canonical form out (or ValueError /
# the registry's "unknown ...; available: [...]" KeyError) ------------------


def _entry(registry, name):
    if not isinstance(name, str):
        raise ValueError(
            f"{registry.kind} name must be a string, got {name!r}"
        )
    return registry.get(name)


def _with_knobs(registry, probe=True):
    """Check for an axis whose entries carry knobs: one grid entry — a
    name, or a ``{"name": ..., "params": {knob: value-or-list}}`` object
    (also as JSON text, which is how a ``run`` flag spells one) — becomes
    ``(canonical name, {knob: [coerced values]})``, the entry's parameter
    grid.  ``Param.coerce`` holds each value to its knob's domain; with
    ``probe`` every grid point is built once and discarded, so what one
    knob cannot say (a cross-knob constraint, an unreadable trace file)
    is refused here too."""
    kind = registry.kind

    def check(entry):
        if isinstance(entry, str) and entry.lstrip().startswith("{"):
            entry = json.loads(entry)
        doc = dict(entry) if isinstance(entry, dict) else {"name": entry}
        name = doc.pop("name", None) or doc.pop(kind, None)
        params = doc.pop("params", {})
        if name is None or doc or not isinstance(params, dict):
            raise ValueError(
                f"sweep spec: a {kind} entry is a name or a {{'name': ..., "
                f"'params': {{knob: value-or-list}}}} object, got {entry!r}"
            )
        registered = _entry(registry, name)
        grid = {}
        for knob in sorted(params):
            param = registered.param(knob)  # raises on undeclared knobs
            values = _as_list(params[knob], f"{kind} param {knob!r}")
            grid[knob] = [_key_value(kind, knob, param.coerce(v)) for v in values]
        if probe:
            for _name, point in _points((registered.name, grid)):
                registered.build(**point)
        return registered.name, grid

    return check


def _points(entry):
    """A canonical ``(name, grid)`` entry's grid points, as ``(name, params)``."""
    name, grid = entry
    knobs = [[(knob, v) for v in values] for knob, values in grid.items()]
    return [(name, dict(combo)) for combo in itertools.product(*knobs)]


def _comma_list(text):
    return [token.strip() for token in text.split(",") if token.strip()]


def _parse_seeds(text):
    seeds = []
    for token in _comma_list(text):
        if ":" in token:
            start, _, stop = token.partition(":")
            seeds.extend(range(int(start), int(stop)))
        else:
            seeds.append(int(token))
    return seeds


#: One experiment dimension.  ``field`` names it on a :class:`SweepCell`
#: and ``grid`` on a :class:`SweepSpec` — a list of values, or one value
#: every cell shares when ``scalar``.  ``check`` canonicalises one value
#: or refuses it.  ``run_flags`` / ``sweep_flags`` are the option
#: strings of the two CLI verbs (none: not settable from the command
#: line); ``parse`` splits a ``sweep`` flag's text into grid tokens,
#: which ``check`` then coerces like spec-file values.
Axis = namedtuple(
    "Axis", "field grid default check run_flags sweep_flags parse help scalar",
    defaults=(False,),
)

#: Every run axis, declared once, in cell-nesting order (the first row
#: varies slowest).  :class:`SweepSpec`, ``repro run`` and ``repro
#: sweep`` all read this table; a new dimension is a row here, the
#: :class:`SweepCell` field it names, and that field's use in
#: :func:`execute_cell` (docs/reference.md, "Run axes").
AXES = (
    # Three rows carry knobs beside the name: a grid entry brings its
    # own parameter grid, and each cell takes one (name, params) point.
    Axis(
        "system", "systems", "bullet_prime", _with_knobs(SYSTEMS),
        ("--system",), ("--systems",), _comma_list,
        "system name or alias (see 'repro list')",
    ),
    Axis(
        "scenario", "scenarios", "none", _with_knobs(SCENARIOS),
        ("--scenario",), ("--scenarios",), _comma_list,
        "dynamic-network scenario name or alias (see 'repro list')",
    ),
    Axis(
        "flow_model", "flow_models", "reno",
        lambda name: _entry(FLOW_MODELS, name).name,
        ("--flow-model",), ("--flow-models", "--flow-model"), _comma_list,
        "underlay rate-control model name or alias (reno, bbr, autorate)",
    ),
    # Not probed: a topology needs a node count to build, and its
    # knobs' domains say all there is to check.
    Axis(
        "topology", "topologies", "mesh", _with_knobs(TOPOLOGIES, probe=False),
        ("--topology",), ("--topologies",), _comma_list,
        f"topology family ({', '.join(TOPOLOGIES.names())})",
    ),
    # The numeric rows are checked like knobs, by Param.coerce: no lossy
    # conversion (8.7 nodes, a `true` seed, a NaN time limit) and the
    # floors the layers below enforce (a tree needs its root, a download
    # a block), refused at spec time instead of mid-sweep.
    Axis(
        "nodes", "nodes", 8, Param("nodes", "int", 8, domain="[1, inf)").coerce,
        ("--nodes",), ("--nodes",), _comma_list, "overlay size",
    ),
    Axis(
        "blocks", "blocks", 24, Param("blocks", "int", 24, domain="[1, inf)").coerce,
        ("--blocks",), ("--blocks",), _comma_list, "file size in blocks",
    ),
    Axis(
        "seed", "seeds", 0, Param("seeds", "int", 0).coerce,
        ("--seed",), ("--seeds",), _parse_seeds,
        "experiment seed; a sweep also takes start:stop ranges "
        "(e.g. '0:4' or '1,3,5:8')",
    ),
    Axis(
        "max_time", "max_time", 3600.0,
        Param("max_time", "float", 3600.0, domain="[0, inf)").coerce,
        ("--max-time",), ("--max-time",), None, "simulated-seconds cap",
        scalar=True,
    ),
    Axis(
        "tree_fanout", "tree_fanout", 4,
        Param("tree_fanout", "int", 4, domain="[1, inf)").coerce,
        (), (), None, "", scalar=True,
    ),
)


class SweepSpec:
    """A declarative sweep: grids over every experiment dimension.

    Takes one keyword per :data:`AXES` row — ``systems``, ``scenarios``,
    ``flow_models``, ``topologies``, ``nodes``, ``blocks``, ``seeds``
    (each a value or a list of values) and the scalars ``max_time`` and
    ``tree_fanout`` — defaulting to the row's default.  Every value is
    canonicalised and checked by its row at construction, so bad input
    fails at spec time, not mid-sweep.

    ``systems``, ``scenarios`` and ``topologies`` entries are either a
    registry name (defaults for every knob) or a ``{"name": ...,
    "params": {knob: value-or-list}}`` dict; list-valued knobs expand
    into a grid.  Knobs are coerced and held to their domains by the
    :class:`~repro.harness.registry.Param` schemas the registered
    builder declares, and each grid point's scenario and system config
    is built once here, so no bad knob survives to a worker.
    """

    def __init__(self, **fields):
        unknown = set(fields) - {axis.grid for axis in AXES}
        if unknown:
            raise ValueError(f"sweep spec: unknown fields {sorted(unknown)}")
        for axis in AXES:
            value = fields.get(axis.grid, axis.default)
            if axis.scalar:
                value = axis.check(value)
            else:
                value = [axis.check(v) for v in _as_list(value, axis.grid)]
            setattr(self, axis.grid, value)
        # Specs are immutable after construction, so the expansion (and
        # its duplicate-cell check) runs once however many times len(),
        # run_sweep, and the CLI ask for the cells.
        self._cells = None

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError(f"sweep spec: expected an object of fields, got {doc!r}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        """Plain-data form of the (normalized) spec."""
        doc = {}
        for axis in AXES:
            value = getattr(self, axis.grid)
            if f"{axis.field}_params" in SweepCell._fields:
                # Back to the entry form the row's check accepts.
                value = [
                    name if not grid else {"name": name, "params": dict(grid)}
                    for name, grid in value
                ]
            doc[axis.grid] = value if axis.scalar else list(value)
        return doc

    def expand(self):
        """The cell list, in canonical (spec-declaration) order."""
        if self._cells is not None:
            return list(self._cells)
        grids = {a.field: getattr(self, a.grid) for a in AXES if not a.scalar}
        # A knob-carrying axis varies by (name, params) point: each
        # entry's knob grid unrolls in place, then splits into the two
        # cell fields.
        knobbed = [f for f in grids if f"{f}_params" in SweepCell._fields]
        for field in knobbed:
            grids[field] = [p for entry in grids[field] for p in _points(entry)]
        scalars = {a.field: getattr(self, a.grid) for a in AXES if a.scalar}
        cells, seen = [], set()
        for combo in itertools.product(*grids.values()):
            fields = dict(zip(grids, combo), **scalars)
            for field in knobbed:
                fields[field], fields[f"{field}_params"] = fields[field]
            cell = SweepCell(**fields)
            key = cell.key()
            if key in seen:
                raise ValueError(
                    f"sweep spec expands to duplicate cell {key!r} "
                    f"(two grid entries resolve to the same canonical name?)"
                )
            seen.add(key)
            cells.append(cell)
        self._cells = tuple(cells)
        return cells

    def __len__(self):
        return len(self.expand())

    def __repr__(self):
        return f"SweepSpec(cells={len(self)})"


def golden_matrix_spec(seeds=(1, 3, 5, 7), nodes=8, blocks=24, max_time=900.0):
    """The acceptance matrix: every system x every scenario x ``seeds``
    on the paper's mesh — the 288 cells whose whole records (summary
    and work counters) ``tests/data/golden_matrix.jsonl`` pins; ``repro
    sweep --golden-matrix --workers 1 --quiet --out`` that path
    re-records it."""
    return SweepSpec(
        systems=SYSTEMS.names(),
        scenarios=SCENARIOS.names(),
        topologies=("mesh",),
        nodes=(nodes,),
        blocks=(blocks,),
        seeds=seeds,
        max_time=max_time,
    )


def execute_cell(cell, *, watchdog_window=60.0, check_invariants=False):
    """Run one cell's experiment; returns its ``ExperimentResult``.

    The one place a cell's names become objects, for ``run`` and
    ``sweep`` alike; the keyword arguments are the ``run_experiment``
    settings that are per verb rather than per cell.
    """
    return run_experiment(
        TOPOLOGIES[cell.topology](cell.nodes, seed=cell.seed, **cell.topology_params),
        SYSTEMS[cell.system](
            num_blocks=cell.blocks, seed=cell.seed, **cell.system_params
        ),
        cell.blocks,
        scenario=SCENARIOS.build(cell.scenario, **cell.scenario_params),
        max_time=cell.max_time,
        tree_fanout=cell.tree_fanout,
        seed=cell.seed,
        flow_model=cell.flow_model,
        watchdog_window=watchdog_window,
        check_invariants=check_invariants,
    )


def reduce_cell(cell, reduce):
    """Run one cell and return ``reduce(result)``; the run is freed first.

    A run's object graph is cyclic, so only the collector frees it.  The
    collector stays paused from the build to the end of ``reduce``, so
    all the cell allocated is still young when the result is dropped,
    and one young collection frees it without walking the caller's older
    heap.  The collector's prior state is restored on every exit path.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        value = reduce(execute_cell(cell))
        gc.collect(0)
        return value
    finally:
        if enabled:
            gc.enable()


def run_cell(cell):
    """Execute one cell; returns its plain-data record.

    The record carries only deterministic content (no wall-clock), so
    result stores can be compared byte for byte across runs, worker
    counts, and machines.  It runs through :func:`reduce_cell`, so no
    earlier cell's run stays in a serial sweep or a pool worker.
    """
    if isinstance(cell, dict):
        cell = SweepCell.from_dict(cell)
    return {
        "key": cell.key(),
        # Structured grouping fields: consumers (aggregates, repro
        # compare) pair and group on these, never by parsing the key —
        # a rendered string param could otherwise smuggle ambiguity in.
        "group": cell.group_key(),
        "seed": cell.seed,
        "cell": cell.to_dict(),
        "summary": reduce_cell(cell, lambda result: result.summary()),
    }


def _run_indexed(payload):
    index, cell_doc = payload
    return index, run_cell(cell_doc)


def run_sweep(spec, workers=1, progress=None):
    """Run every cell of ``spec``; returns a :class:`SweepResult`.

    ``workers > 1`` distributes cells over a multiprocess pool with
    dynamic load balancing (``imap_unordered``, chunksize 1); records
    are merged back into canonical cell order, so the result — and the
    JSONL store written from it — is bit-identical to ``workers=1``.
    ``progress`` (optional) is called as ``progress(done, total, key)``
    after each cell completes, in completion order.  Each cell's run is
    freed once its record is made (:func:`run_cell`).
    """
    cells = spec.expand()
    workers = max(1, int(workers))
    records = [None] * len(cells)
    if workers == 1 or len(cells) <= 1:
        for index, cell in enumerate(cells):
            records[index] = run_cell(cell)
            if progress is not None:
                progress(index + 1, len(cells), records[index]["key"])
    else:
        payloads = [(index, cell.to_dict()) for index, cell in enumerate(cells)]
        with multiprocessing.get_context().Pool(
            processes=min(workers, len(cells))
        ) as pool:
            done = 0
            for index, record in pool.imap_unordered(
                _run_indexed, payloads, chunksize=1
            ):
                records[index] = record
                done += 1
                if progress is not None:
                    progress(done, len(cells), record["key"])
    return SweepResult(spec, records)


def record_cell(record):
    """The :class:`SweepCell` a store record describes.

    Rebuilt from the record's structured ``cell`` fields (present in
    every store ever written), so grouping and pairing never parse the
    rendered ``key`` string.
    """
    return SweepCell.from_dict(record["cell"])


class StoreView:
    """Read-only analytics view over per-cell sweep records.

    Wraps records in memory (a :class:`SweepResult` is one) or loaded
    from a JSONL results store (:meth:`from_jsonl`), and applies the
    **unfinished-cell policy** — defined here, once, for every
    consumer (:meth:`aggregates`, ``repro compare``):

    A record whose run did not finish (``summary["finished"]`` false —
    the liveness watchdog fired, or the time limit hit) has *censored*
    completion metrics: its ``worst`` is a lower bound, not a
    measurement, and when nothing completed at all the metrics are
    ``None``.  Such cells are therefore **excluded from completion-
    metric statistics** (median/p90/worst aggregates and paired
    deltas); every aggregate row reports ``n_finished`` alongside
    ``n_seeds`` so the censoring is visible, and a group with no
    finished cell reports ``None`` for each metric aggregate instead
    of a fabricated number.  Counters (duplicates, perf, ...) remain
    valid for unfinished cells and are not affected by the policy.
    """

    def __init__(self, records):
        self.records = list(records)

    @classmethod
    def from_jsonl(cls, path):
        """Load a results store written by :meth:`SweepResult.write_jsonl`."""
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: not a JSONL sweep store ({exc})"
                    ) from None
                if "cell" not in record or "summary" not in record:
                    raise ValueError(
                        f"{path}:{lineno}: record lacks 'cell'/'summary' "
                        "fields — not a sweep results store"
                    )
                records.append(record)
        if not records:
            raise ValueError(f"{path}: empty results store")
        return cls(records)

    def __len__(self):
        return len(self.records)

    def by_key(self):
        """``{cell key: summary}`` over every record."""
        return {record["key"]: record["summary"] for record in self.records}

    @staticmethod
    def finished_summaries(summaries):
        """Apply the unfinished-cell policy: the summaries whose
        completion metrics may enter cross-seed statistics."""
        return [s for s in summaries if s["finished"]]

    def grouped(self):
        """``{group key: [records]}`` in first-appearance order."""
        groups = {}
        for record in self.records:
            groups.setdefault(record_cell(record).group_key(), []).append(
                record
            )
        return groups

    def aggregates(self, metrics=("median", "p90", "worst")):
        """Cross-seed statistics per cell group, in record order.

        Returns ``[{"group": ..., "n_seeds": ..., "n_finished": ...,
        "finished": fraction, "<metric>": aggregate-dict-or-None, ...},
        ...]`` where each aggregate dict is
        :func:`repro.common.stats.aggregate` over the per-seed summary
        values of the *finished* cells (the unfinished-cell policy
        above), or ``None`` when no cell in the group finished.
        """
        rows = []
        for group, records in self.grouped().items():
            summaries = [record["summary"] for record in records]
            finished = self.finished_summaries(summaries)
            row = {
                "group": group,
                "n_seeds": len(summaries),
                "n_finished": len(finished),
                "finished": len(finished) / len(summaries),
            }
            for metric in metrics:
                row[metric] = (
                    stats.aggregate([s[metric] for s in finished])
                    if finished
                    else None
                )
            rows.append(row)
        return rows

    def __repr__(self):
        return f"{type(self).__name__}(cells={len(self)})"


class SweepResult(StoreView):
    """Merged sweep output: per-cell records in canonical order."""

    def __init__(self, spec, records):
        super().__init__(records)
        self.spec = spec

    def to_jsonl(self):
        """The results store: one sorted-keys JSON line per cell."""
        return "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self.records
        )

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return path

    def render_aggregates(self):
        """Text table of :meth:`aggregates` for the CLI."""
        rows = self.aggregates()
        lines = [
            f"{'group':58s} {'seeds':>5s} {'done':>5s} "
            f"{'median':>9s} {'ci95':>19s} {'p90':>9s} {'worst':>9s}"
        ]
        for row in rows:
            med = row["median"]
            if med is None:
                # No finished cell in the group: censored, not zero.
                lines.append(
                    f"{row['group']:58s} {row['n_seeds']:5d} "
                    f"{row['finished']:5.0%} {'n/a':>9s} {'':>19s} "
                    f"{'n/a':>9s} {'n/a':>9s}"
                )
                continue
            ci = f"[{med['ci_low']:8.1f},{med['ci_high']:8.1f}]"
            lines.append(
                f"{row['group']:58s} {row['n_seeds']:5d} "
                f"{row['finished']:5.0%} {med['mean']:9.1f} {ci:>19s} "
                f"{row['p90']['mean']:9.1f} {row['worst']['mean']:9.1f}"
            )
        return "\n".join(lines)
