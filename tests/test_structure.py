"""Every structural claim about ``src/`` as a row: name, measure, bound and
the commit that set it; the fence rows share one parse of ``src/``.
A change that grows a bounded module edits its row, with the reason.
``PYTHONPATH=src python tests/test_structure.py`` prints the measured column.
"""

import ast
import contextlib
import functools
import io
import json
import pathlib
import re
from collections import Counter, namedtuple

import pytest

import test_paper_claims
from repro.__main__ import main

TESTS = pathlib.Path(__file__).resolve().parent
REPRO = TESTS.parent / "src" / "repro"
#: The builtin ``sum(`` calls kept, as "module: call": each adds integers,
#: which every interpreter totals exactly; floats go through ``ordered_sum``.
INTEGER_SUMS = [
    "codec/segments.py: sum(d.blocks_fed for d in self.decoders)",
    "codec/segments.py: sum(d.k for d in self.decoders)",
    "overlay/ransub.py: sum(len(p) for p in pools)",
    "shotgun/rsync.py: sum( len(payload) for op, payload in self.ops if op == Delta.LITERAL )",
    "shotgun/rsync.py: sum(1 for op, _ in self.ops if op == Delta.COPY)",
    'harness/compare.py: sum( 1 for s in base_by_seed.values() if s["finished"] )',
    "common/stats.py: sum(1 for d in deltas if d < 0)",
    "common/stats.py: sum(1 for d in deltas if d == 0)",
    "sim/trace.py: sum(self.duplicate_blocks.values())",
    "core/bullet_prime.py: sum(1 for b in summary.sample_blocks if self.state.wants(b))",
    "core/request.py: sum(map(len, self._senders[sender_key].buckets.values()))",
    "baselines/splitstream.py: sum(min(c, self._stripe_required) for c in self._stripe_counts)",
]
#: The one module that writes links, and the one that reports nodes to a run.
WRITE_MODULE, REPORT_MODULE = "sim/links.py", "overlay/node.py"
REPORTS = ("block_received", "completed", "node_started")
#: Names of the per-node counter plumbing that ``trace.counters`` replaced.
GONE = ("failure_stats", "FAILURE_COUNTERS", "salvaged_stats", "extra_perf")
#: Attributes stored under ``src/`` that no code loads, each with the
#: mechanism it is kept for.
WRITE_ONLY = {
    "announces": "Tracker's announce count, asserted by tests",
    "incoming_bw": "NodeSummary's gossiped field, sized into SUMMARY_WIRE_BYTES",
    "blocks_per_segment": "the segment codec's constructor argument, kept public",
    "segment_sizes": "the segment encoder's per-segment byte counts, kept public",
    "__doc__": "the system-builder factory documents each builder for help()",
}


@functools.cache
def _sources(root=REPRO):
    paths = sorted(root.rglob("*.py"))
    return {p.relative_to(root).as_posix(): p.read_text("utf-8") for p in paths}


@functools.cache
def _nodes():
    trees = {m: ast.parse(text) for m, text in _sources().items()}
    return [(m, _sources()[m], n) for m, tree in trees.items() for n in ast.walk(tree)]


@functools.cache
def _walk(top):
    """Every AST node of the modules under ``top`` (``examples``, ``bench``)."""
    paths = sorted((TESTS.parent / top).rglob("*.py"))
    return [n for p in paths for n in ast.walk(ast.parse(p.read_text("utf-8")))]


def _texts(paths, exclude=()):
    picked = {p: [m for m in _sources() if m.startswith(p)] for p in paths.split(" ")}
    assert all(picked.values()), f"a path matches no module: {picked}"
    return [_sources()[m] for ms in picked.values() for m in ms if m not in exclude]


def lines(paths):
    return lambda: sum(text.count("\n") for text in _texts(paths))


def grep(pattern, paths="", exclude=()):
    """Lines that ``pattern`` matches, as ``grep -c`` counts them."""
    hit = re.compile(pattern).search
    texts = functools.partial(_texts, paths, exclude)
    return lambda: sum(bool(hit(s)) for text in texts() for s in text.splitlines())


@functools.cache
def _listing():
    """Facts of what ``repro list --json`` prints."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["list", "--json"]) == 0
    doc = json.loads(out.getvalue())
    knobs = {k: [p for e in doc[k] for p in e["params"]] for k in doc if k != "figures"}
    facts = {"bytes": len(out.getvalue().encode())}
    facts["flow_models"] = len(knobs["flow_models"])
    for kind in ("systems", "topologies"):
        none = [p["domain"] is None for p in knobs[kind]]
        facts[kind] = f"{none.count(False)} / {none.count(True)}"
    numeric = knobs["scenarios"] + knobs["flow_models"]
    numeric = [p for p in numeric if p["kind"] in ("float", "int")]
    facts["numeric"] = sum(p["domain"] is None for p in numeric if p["name"] != "seed")
    return facts


def float_sums():
    """Builtin ``sum(`` calls off :data:`INTEGER_SUMS`, then stale entries."""
    found = Counter(
        f"{module}: {' '.join(ast.get_source_segment(text, node).split())}"
        for module, text, node in _nodes()
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
    )
    listed = Counter(INTEGER_SUMS)
    return sorted((found - listed).elements()) + sorted((listed - found).elements())


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _assigned(node):
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return getattr(node, "targets", None) or [node.target]
    return []


def link_writes():
    """Every write of a link condition (public or its private slot), and
    every use of the loss-overlay helpers, outside :data:`WRITE_MODULE`."""
    slots = ("capacity", "loss_rate", "delay", "_capacity", "_loss_rate", "_delay")
    found = []
    for module, text, node in _nodes():
        if targets := _assigned(node):
            hits = [t for t in targets if getattr(t, "attr", None) in slots]
        else:
            name = _name(node) or getattr(node, "name", None)
            hits = [node] if name in ("_overlay_loss", "_remove_loss") else []
        if module != WRITE_MODULE:
            found += [(module, ast.get_source_segment(text, hit)) for hit in hits]
    return found


def report_path_breaches():
    """Every trace report or ``completed_at`` write outside
    :data:`REPORT_MODULE`, every ``self.trace is not None`` test, and every
    use of a :data:`GONE` name or of a ``"duplicate_blocks"`` key."""
    found = []
    for module, text, node in _nodes():
        elsewhere, func = module != REPORT_MODULE, getattr(node, "func", None)
        if isinstance(node, ast.Call):
            hit = elsewhere and isinstance(func, ast.Attribute) and func.attr in REPORTS
            hit = hit and _name(func.value) == "trace"
        elif targets := _assigned(node):
            hit = elsewhere and any(_name(t) == "completed_at" for t in targets)
        elif isinstance(node, ast.Compare):
            hit = _name(node.left) == "trace" and isinstance(node.ops[0], ast.IsNot)
            hit = hit and _name(getattr(node.left, "value", None)) == "self"
            hit = hit and getattr(node.comparators[0], "value", 0) is None
        elif isinstance(node, ast.Constant):
            hit = node.value == "duplicate_blocks"
        else:
            hit = _name(node) in GONE
        if hit:
            found.append((module, ast.get_source_segment(text, node)))
    return found


def write_only():
    """Attribute names stored under ``src/`` that no file in ``src/``,
    ``examples/`` or ``bench/`` loads, as an attribute or as a
    ``getattr`` / ``hasattr`` string, off :data:`WRITE_ONLY`; then stale
    entries."""
    src = [node for _module, _text, node in _nodes()]
    attrs = [n for n in src if isinstance(n, ast.Attribute)]
    stored = {n.attr for n in attrs if isinstance(n.ctx, ast.Store)}
    loaded = set()
    for node in src + _walk("examples") + _walk("bench"):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            loaded.add(node.attr)
        elif isinstance(node, ast.Call) and _name(node.func) in ("getattr", "hasattr"):
            loaded.add(getattr(node.args[1], "value", None))
    unread = stored - loaded
    return sorted(unread - WRITE_ONLY.keys()) + sorted(WRITE_ONLY.keys() - unread)


Row = namedtuple("Row", "name measure bound since", defaults=(None, None))
ACTUATION = "scenarios/ harness/faults.py sim/links.py"
ALLOCATOR = "sim/tcp.py sim/alloc.py"
UNDERLAY = ALLOCATOR + " sim/flow_models.py"
CLI = "__main__.py harness/sweep.py harness/compare.py"
CHECKS = "scenarios/catalog.py scenarios/dynamics.py scenarios/failures.py sim/flow_models.py"
REPORT_PATH = "overlay/node.py core/bullet_prime.py sim/trace.py sim/transport.py"
REPORT_PATH += " baselines/bullet.py baselines/bittorrent.py baselines/splitstream.py"
REPORT_PATH += " harness/faults.py harness/experiment.py __main__.py"
TRACE_REPORTS = grep(rf"trace\.({'|'.join(REPORTS)})\(", exclude=(REPORT_MODULE,))
DATACLASSES = grep("@dataclass", "core/ baselines/")
RUNS = grep(r"run_experiment\(", "harness/figures.py shotgun/")
SETTLE = grep(r"flow.on_rate_change\(flow", "sim/tcp.py")
TIMER_POOL = grep(r"\b(getrefcount|_batch|_free)\b")
ARMING = r"\b(arm_gray|fault_detection_started|gray_detection_started|LivenessWatchdog"
ARMING = grep(ARMING + r"|last_arrival_time|_watchdog)\b")
TEST_ONLY = r"\b(flow_allocator|TraceRecorder|write_trace|flash_crowd_file"
TEST_ONLY = grep(TEST_ONLY + r"|slow_start_cap)\b")
ONE_INDEX = r"\b(_Index|_indexes|groupby|_PeriodicHandle|_gray_victim|_network"
ONE_INDEX += r"|head_started_tx|_expected_children|block_kind|blocks_pushed)\b"
ONE_CANDIDATE_INDEX = r"\.stale\b|\b(_CandidateList|_pick_first|_pick_random|_indexed"
ONE_CANDIDATE_INDEX = grep(ONE_CANDIDATE_INDEX + r"|prefetch_needed)\b")
CONTROL_BYTES = r"control_sent|total_control_bytes|control_bytes_sent"
CONTROL_BYTES = grep(CONTROL_BYTES + r"|\bblocks_received\b")
CHANNEL = grep(r"\b(Channel|_out_channel|queued_block_count|queued_blocks)\b")
SCRIPTS = "scenarios/catalog.py scenarios/dynamics.py scenarios/failures.py"
SCRIPTS += " scenarios/tracefile.py"
TIMERS = r"\bperiodic\(|\.schedule\(|schedule_at\("
SCRIPT_TIMERS = grep(TIMERS + r"|\.apply\(", SCRIPTS)
FAULT_TIMERS = grep(TIMERS, "harness/faults.py")
FAULT_ACTIONS = r"faults\.(fail|schedule_restart|restart|partition|heal|degrade_node"
FAULT_ACTIONS = grep(FAULT_ACTIONS + r"|restore_node|flake_node|(dis)?arm_adversity)\(")
PLAY_CALLS = grep(r"\bplay\(", exclude=("scenarios/base.py",))
BULLET_PRIME = "core/bullet_prime.py"
QUARANTINE = r"\b(_quarantine|QUARANTINE_|STRAGGLER_|QUALITY_ALPHA|slow_epochs"
QUARANTINE = grep(QUARANTINE + r"|corrupt_total|tree_conns|_tree_parent_conn\b)")
#: ``Link(`` calls in sim/topology.py that make no access link.
CORE_LINK_SITES = grep(r'\bLink\((?!f"(up|down)\{)', "sim/topology.py")
OBSERVER_DEFERRAL = r"\b(ScaleLog|scale_log|_catch_up|index_core|enroll|_cursor|_pos)\b"
ROWS = [
    # src/ passed 13,380 with the deferred scale column (sim/links.py);
    # the bounds marked 08c29ac were set by the change after it: one
    # scale-log index, and the write-only state gone.  The bounds marked
    # deac2f3 were set by one candidate index for every request strategy,
    # those marked 8e35007 by knob-free flow models and one control-byte
    # count, those marked 2d1cbe2 by one object per connection end, and
    # those marked 220a13f by link scenarios written as row scripts,
    # those marked 6dffae9 by Bullet' without its sender quarantine, and
    # those marked fa268c7 by core links built on first use: CoreLinks
    # (sim/topology.py) adds about 60 lines, net of the eager make_core
    # closures and _full_mesh, ScaleLog's positions dict and links list
    # give way to a position on each link, the oscillation phases are
    # an array, and run --profile counts the links built.  Those marked
    # 18f8daa were set by freeing each sweep cell's run: reduce_cell
    # (harness/sweep.py, about 20 lines with its docstring) and the
    # check that a topology serves one run.  Those marked 6b5e702 were
    # set by core links with one laziness: a link is deferred only until
    # it is built, so ScaleLog, the per-link cursors and positions, the
    # catch-up and the on_capacity_change property go (-95 lines in
    # sim/links.py and sim/topology.py), while TraceReplay's up-front
    # check of every event value adds 16 lines to scenarios/.  Those
    # marked 98477cf were set by fault scenarios written as scripts: a
    # fault action returns its undo, so the injector loses its timers,
    # its duration arguments and their refusals.  Those marked d372c39
    # were set by every scenario written as one script: a script yields
    # the scripts it starts, so eight install overrides and thirteen
    # play() calls go, while play's new step and its docs add 10 lines
    # to scenarios/; ScenarioContext.nodes and six test-only ControlTree
    # and Cdf helpers go (-38 lines elsewhere).
    Row("src/ lines", lines(""), "<= 13083", "d372c39"),
    Row("tests/ lines", lambda: sum(t.count("\n") for t in _sources(TESTS).values())),
    Row("paper claim rows", lambda: len(test_paper_claims.CLAIMS)),
    Row("scenario package lines", lines("scenarios/"), "<= 2029", "d372c39"),
    Row("link actuation lines", lines(ACTUATION), "<= 2647", "d372c39"),
    Row("link writes outside sim/links.py", link_writes, "== 0", "2ad1543"),
    Row("cli + sweep + compare lines", lines(CLI)),
    Row("allocator lines", lines(ALLOCATOR), "<= 915", "8e35007"),
    Row("allocator + flow-model lines", lines(UNDERLAY), "<= 1239", "8e35007"),
    Row("sim/flow_models.py lines", lines("sim/flow_models.py"), "<= 324", "8e35007"),
    Row("flow-model knobs", lambda: _listing()["flow_models"], "== 0", "8e35007"),
    Row("settle sites", SETTLE, "== 1", "06cdc33"),
    Row("figures.py lines", lines("harness/figures.py")),
    Row("run_experiment( in figures + shotgun", RUNS, "== 0", "239e919"),
    Row("@dataclass in core + baselines", DATACLASSES, "== 0", "239e919"),
    Row("repro list --json bytes", lambda: _listing()["bytes"]),
    Row("def validate", grep("def validate")),
    Row("ValueErrors in scenarios + flow models", grep("raise ValueError", CHECKS)),
    Row("numeric knobs without a domain", lambda: _listing()["numeric"]),
    Row("system params with / without a domain", lambda: _listing()["systems"]),
    Row("topology params with / without a domain", lambda: _listing()["topologies"]),
    Row("node report lines", lines(REPORT_PATH), "<= 4370", "aa6b928"),
    Row("trace reports outside overlay/node.py", TRACE_REPORTS, "== 0", "aa6b928"),
    Row("report-path breaches", report_path_breaches, "== 0", "aa6b928"),
    # Whole words: the kept same_time_batched perf key does not count.
    Row("sim/engine.py lines", lines("sim/engine.py"), "<= 274", "08c29ac"),
    Row("timer pool words", TIMER_POOL, "== 0", "50acba1"),
    Row("harness/faults.py lines", lines("harness/faults.py"), "<= 320", "98477cf"),
    Row("arming hook and watchdog words", ARMING, "== 0", "0ebe3a6"),
    Row("_dispatch =", grep("_dispatch ="), "== 0", "f3cd308"),
    Row("test-only member words", TEST_ONLY, "== 0", "a859d83"),
    Row("incremental=", grep("incremental="), "== 0", "a859d83"),
    Row("float sum( outside the integer allowlist", float_sums, "== 0", "1733139"),
    Row("write-only attributes off the allowlist", write_only, "== 0", "08c29ac"),
    Row("per-tuple index and write-only words", grep(ONE_INDEX), "== 0", "08c29ac"),
    Row("core/request.py lines", lines("core/request.py"), "<= 258", "deac2f3"),
    Row("second candidate structure words", ONE_CANDIDATE_INDEX, "== 0", "deac2f3"),
    # One run-wide control-byte count, in the transport's Network.
    Row("control-byte and block counter words", CONTROL_BYTES, "== 0", "8e35007"),
    # A Connection is one end: its own send queue, no Channel behind it.
    Row("sim/transport.py lines", lines("sim/transport.py"), "<= 552", "2d1cbe2"),
    Row("channel and queue-forwarder words", CHANNEL, "== 0", "2d1cbe2"),
    # Scenarios yield waits, rows and fault actions; only play() schedules,
    # writes and acts, and a fault returns its undo instead of arming it.
    Row("scenario timer and write calls", SCRIPT_TIMERS, "== 0", "98477cf"),
    Row("fault injector timer calls", FAULT_TIMERS, "== 0", "98477cf"),
    Row("fault actions outside play", FAULT_ACTIONS, "== 0", "98477cf"),
    # A script yields the scripts it starts, so Scenario.install is the
    # one play() call and the one install in src/: a scenario writes script.
    Row("play( outside scenarios/base.py", PLAY_CALLS, "== 0", "d372c39"),
    Row("def install", grep(r"\bdef install\("), "== 1", "d372c39"),
    # A slow sender is shed by the peer-set prune alone, and a node's tree
    # links are RanSub's parent_conn / child_conns, with no mirror.
    Row("core/bullet_prime.py lines", lines(BULLET_PRIME), "<= 928", "6dffae9"),
    Row("quarantine and tree-link mirror words", QUARANTINE, "== 0", "6dffae9"),
    # The builders hand per-pair columns to CoreLinks, which makes each
    # core link on first use: its _build is the one core Link( site.
    Row("core-link Link( sites", CORE_LINK_SITES, "== 1", "fa268c7"),
    # A built core link is always current: nothing defers a write on it,
    # so no log, cursor or catch-up (and no per-link position) remains.
    Row("observer-deferral words", grep(OBSERVER_DEFERRAL), "== 0", "6b5e702"),
    # A sweep cell's run is freed by reduce_cell's one young collection;
    # nothing else in src/ collects, and nothing walks the whole heap.
    Row("gc.collect( sites", grep(r"\bgc\.collect\("), "== 1", "18f8daa"),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_row_holds_its_bound(row):
    value = row.measure()
    size = len(value) if isinstance(value, list) else value
    if row.bound:
        op, limit = row.bound.split()
        assert size <= int(limit) if op == "<=" else size == int(limit), value


if __name__ == "__main__":
    for row in ROWS:
        value = row.measure()
        bound = f" ({row.bound}, {row.since})" if row.bound else ""
        print(f"{row.name}: {len(value) if isinstance(value, list) else value}{bound}")
