"""The repo benchmark: five pinned workloads, measured from outside.

Report mode (what a person runs)::

    python bench/run.py [--workload NAME] [--seed S] [--seconds T]
                        [--repeats N] [--no-trace] [--smoke] [--agree]
                        [--out FILE]

runs the workloads declared in ``BENCHMARK.json``, prints every metric by
name with its unit, checks that the outputs are correct, writes one JSON
document and exits non-zero if any check failed.

Driver mode (what ``BENCHMARK.json``'s ``command`` is called with)::

    python bench/run.py --workload NAME --seed S --seconds T --trace 0|1

prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.

Method.  Closed loop, one client: each *member* is one fresh child
interpreter (``bench/child.py``) that issues one ``run_experiment`` or
one ``run_sweep`` call and waits for it.  The members of a workload are
the sub-seeds ``seed*1000, seed*1000+10, ...``: a single simulated run
varies by tens of percent from seed to seed, so one run per seed is not
a steady number; the reported value is the median over the members
measured within ``--seconds`` of timed region (at least three).  Host
times are reported at reference speed (``bench/calibrate.py``).  With
several workloads the members are interleaved round-robin so machine
drift spreads evenly.  Per-layer numbers come from one extra traced run
of the first member; end-to-end numbers never do.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

MIN_MEMBERS = 3
MAX_MEMBERS = 16
#: The driver allows one invocation 180 s in total.
CHILD_TIMEOUT_S = 150
MIN_ATTRIBUTED_SHARE = 0.95


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sub_seed(seed, index):
    """Member ``index`` of ``--seed``; spaced so sweep seeds never overlap."""
    return seed * 1000 + index * 10


def run_child(name, seed, smoke, traced):
    """One measurement in a fresh interpreter; returns its record.

    A child that raises (or hangs past ``CHILD_TIMEOUT_S``) aborts the
    whole run with its traceback: there is no record to report.
    """
    child = subprocess.Popen(
        [
            sys.executable,
            os.path.join(HERE, "child.py"),
            name,
            str(seed),
            "smoke" if smoke else "full",
            "1" if traced else "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # Its own process group, so a hung sweep's pool workers die with it.
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{name} seed {seed}: child hung, killed") from None
    if child.returncode != 0:
        raise RuntimeError(
            f"{name} seed {seed}: child exited {child.returncode}\n{err}"
        )
    return metrics.at_reference_speed(json.loads(out.splitlines()[-1]))


class Panel:
    """The untraced members of one workload, measured one at a time."""

    def __init__(self, name, seed, smoke, seconds, repeats):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.seconds = seconds
        self.repeats = repeats
        self.records = []

    @property
    def done(self):
        count = len(self.records)
        if self.repeats is not None:
            return count >= self.repeats
        if count < MIN_MEMBERS:
            return False
        # Stop once one more member cannot fit.  A member is priced at the
        # cheapest seen so far: a sweep member with a never-finishing cell
        # costs several times more, and must not shrink the panel whose
        # median is there to absorb it.
        cheapest = min(record["raw_wall_s"] for record in self.records)
        return count >= MAX_MEMBERS or (count + 1) * cheapest > self.seconds

    def step(self):
        seed = sub_seed(self.seed, len(self.records))
        self.records.append(run_child(self.name, seed, self.smoke, traced=False))


def check_traced(plain, traced, layer):
    """The tracer must perturb nothing and account for what it timed."""
    failures = list(traced["failures"])
    if traced["sim_digest"] != plain["sim_digest"]:
        failures.append(
            "traced output differs from untraced output "
            f"({traced['sim_digest'][:12]} != {plain['sim_digest'][:12]})"
        )
    if traced["perf"] != plain["perf"]:
        failures.append("traced perf counters differ from untraced ones")
    share = layer["trace.attributed_share"]
    if share < MIN_ATTRIBUTED_SHARE:
        failures.append(f"trace.attributed_share {share:.3f} < {MIN_ATTRIBUTED_SHARE}")
    return failures


def report(name, smoke, records, traced):
    """The plain-data report of one workload."""
    failures = [
        f"seed {record['seed']}: {text}"
        for record in records
        for text in record["failures"]
    ]
    attempted = sum(record["operations"] for record in records)
    failed = sum(1 for record in records if record["failures"])
    unfinished = sum(record["unfinished"] for record in records)
    members = [metrics.member_metrics(record) for record in records]
    samples = {key: [member[key] for member in members] for key in members[0]}
    doc = {
        "inputs": workloads.sized(name, smoke),
        "sub_seeds": [record["seed"] for record in records],
        "sim_digests": [record["sim_digest"] for record in records],
        "loadavg1": [record["loadavg1"] for record in records],
        "samples": samples,
        "raw_wall_s": [record["raw_wall_s"] for record in records],
        "end_to_end": {
            key: statistics.median(values) for key, values in samples.items()
        },
    }
    if traced is not None:
        layer = metrics.layer_metrics(records[0], traced)
        traced_failures = check_traced(records[0], traced, layer)
        failures += [f"traced: {text}" for text in traced_failures]
        attempted += traced["operations"]
        failed += 1 if traced_failures else 0
        doc["per_layer"] = layer
    # Issue definition: an unfinished simulated run is a failed operation
    # too.  The driver's ``failed`` counts only operations whose output
    # was wrong; an unfinished sweep cell is a correct, censored result.
    doc["end_to_end"]["failed_share"] = min(1.0, (failed + unfinished) / attempted)
    doc.update(attempted=attempted, failed=failed, failures=failures)
    return doc


def measure(names, args):
    """Measure ``names``; returns ``{name: report}``."""
    panels = [
        Panel(name, args.seed, args.smoke, args.seconds, args.repeats)
        for name in names
    ]
    while not all(panel.done for panel in panels):
        for panel in panels:
            if not panel.done:
                panel.step()
    reports = {}
    for panel in panels:
        traced = None
        if not args.no_trace:
            first = panel.records[0]["seed"]
            traced = run_child(panel.name, first, args.smoke, traced=True)
        reports[panel.name] = report(panel.name, args.smoke, panel.records, traced)
    return reports


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "loadavg1": os.getloadavg()[0],
    }


def units(definition):
    return {
        entry["name"]: entry["unit"]
        for entry in definition["end_to_end"] + definition["per_layer"]
    }


def render(reports, unit_of):
    lines = []
    for name, doc in reports.items():
        count = len(doc["sub_seeds"])
        lines.append(f"== {name}  ({count} members, seeds {doc['sub_seeds']})")
        lines.append(
            f"  {'end-to-end':20s} {'median':>12s} {'min':>12s} {'max':>12s}"
            f" {'n':>3s}  unit"
        )
        for key, value in doc["end_to_end"].items():
            values = doc["samples"].get(key, [value])
            lines.append(
                f"  {key:20s} {value:12.6g} {min(values):12.6g} "
                f"{max(values):12.6g} {len(values):3d}  {unit_of[key]}"
            )
        raw = statistics.median(doc["raw_wall_s"])
        lines.append(f"  (raw wall_s median {raw:.6g} s, before the speed correction)")
        for key, value in doc.get("per_layer", {}).items():
            lines.append(f"  {key:44s} {value:14.6g}  {unit_of[key]}")
        for text in doc["failures"]:
            lines.append(f"  FAILED: {text}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        help="timed region per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--repeats", type=int, help="members per workload, exactly")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--trace", choices=("0", "1"), help="driver mode (see above)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one member")
    parser.add_argument("--agree", action="store_true", help="two sets must agree")
    parser.add_argument("--out", help="result document (default: bench/out/...)")
    return parser.parse_args(argv)


def driver_line(definition, doc, traced):
    unit_of = units(definition)
    declared = definition["per_layer" if traced else "end_to_end"]
    source = dict(doc["end_to_end"], **doc.get("per_layer", {}))
    return json.dumps(
        {
            "correct": not doc["failures"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {
                entry["name"]: {
                    "value": source[entry["name"]],
                    "unit": unit_of[entry["name"]],
                }
                for entry in declared
            },
        }
    )


def main(argv):
    args = parse_args(argv)
    definition = load_definition()
    names = [entry["name"] for entry in definition["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json and workloads.py name different workloads")
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; available: {names}")
        names = [args.workload]
    if args.seconds is None:
        args.seconds = float(definition["run_seconds"])
    if args.smoke and args.repeats is None:
        args.repeats = 1

    if args.trace is not None:
        if args.workload is None:
            raise SystemExit("--trace needs --workload")
        if args.trace == "1":
            # Layers need one member and its traced twin, not the panel.
            args.repeats = 1
        args.no_trace = args.trace == "0"
        doc = measure(names, args)[args.workload]
        for text in doc["failures"]:
            print(f"FAILED: {text}", file=sys.stderr)
        print(driver_line(definition, doc, traced=(args.trace == "1")))
        return 0

    result = {
        "environment": environment(),
        "args": {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke},
        "workloads": measure(names, args),
    }
    print(render(result["workloads"], units(definition)))
    correct = not any(doc["failures"] for doc in result["workloads"].values())
    if args.agree:
        second = dict(result, workloads=measure(names, args))
        rows = compare.compare(result, second, definition)
        print(compare.render(rows))
        correct = correct and compare.agree(rows)
        result["agree"] = {"second": second["workloads"], "rows": rows}
    result["correct"] = correct
    out = args.out or os.path.join(HERE, "out", "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"wrote {out}; correct={correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
