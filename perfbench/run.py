#!/usr/bin/env python3
"""Run one sgisect benchmark workload from a seed and print its metrics.

    python3 perfbench/run.py --workload sat-unbounded --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's batch is drawn from the seed, built into sgisect inputs, then
pushed through its pipeline in whole passes until the run would last longer
than ``--seconds`` (at least two passes).  Every outcome is checked against
``oracle`` outside the timed region.  The last line of standard output is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  See README.md.
"""

import os

# numpy's thread pools must be single-threaded before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import hashlib
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import oracle

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("sat-unbounded", "sat-nilpotent", "tables-slp")
# A regression that allocates without limit ends as a counted MemoryError
# instead of pressing on the memory of a shared machine.
ADDRESS_SPACE_CAP = 2 << 30
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MIN_PASSES = 2
SETUP_SAMPLES = 7
# About the reference computation's time on the machine the benchmark was
# built on (2-vCPU Xeon VM, Python 3.11); it only sets the scale of the
# reported times.
REFERENCE_NOMINAL_S = 0.0009
TAIL_BEYOND = 10  # instances the tail percentile must leave above it
DEPTHS = 8  # per-depth metrics solve.depth_*.1 .. .DEPTHS; deeper layers count in the last

PER_LAYER_SPANS = (
    "reductions.reduce", "formats.serialize", "formats.parse", "varieties.classify",
    "solve.solve", "solve.verify", "solve.enum", "slp.power", "slp.image",
    "circuits.lower", "circuits.eval")
SELF_TIME_LAYERS = ("bench", "reductions", "formats", "varieties", "solve", "slp", "circuits")


def fix_mmap_threshold() -> None:
    """glibc raises its mmap threshold to the size of each large block freed,
    after which blocks of that size come from the heap and may stay resident.
    Whether that happens before or after the biggest BFS layer is allocated
    varies from run to run, so the peak RSS of one seed read 104 or 113 MB.
    A fixed threshold (glibc's default start value) turns the adjustment off.
    Without glibc nothing changes."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt(M_MMAP_THRESHOLD, 128 << 10)


def setup(specs):
    """Import the program and build its inputs from the drawn specs: the
    set-up being timed, at reference speed (see Reference).  Drawing the
    specs, with the oracle's answers, is not part of it."""
    ref = Reference()
    before = ref.measure()
    t0 = time.perf_counter()
    import workloads
    items = workloads.build(specs)
    seconds = time.perf_counter() - t0
    return seconds * ref.scale((before + ref.measure()) / 2), workloads, items


def setup_seconds(args, first: float) -> float:
    """Median of this process's set-up time and those of fresh processes."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


class Reference:
    """A fixed pure-Python computation that uses no sgisect code.

    The machine this benchmark was built on is a VM on a shared host whose
    speed flips between states 1.4-1.8x apart, for stretches from a fraction
    of a second to minutes, and it slows the reference and the workloads
    alike (CPU time slows as much as wall time).  Timing the reference right
    before and after each instance and scaling the instance's time by
    REFERENCE_NOMINAL_S / (their mean) reports it at about one machine speed.
    It tracks the numpy-heavy BFS less closely than pure-Python work.  A
    change to sgisect cannot move the scale.
    """

    def __init__(self):
        self._table = tuple(tuple((3 * i + 5 * j + i * j) % 37 for j in range(37)) for i in range(37))

    def measure(self) -> float:
        """Median of three runs, so that one interrupted run does not set the scale."""
        return statistics.median(self._run() for _ in range(3))

    def _run(self) -> float:
        t = self._table
        hits = 0
        t0 = time.perf_counter()
        for x in range(20):
            tx = t[x]
            for y in range(20):
                txy = t[tx[y]]
                ty = t[y]
                for z in range(20):
                    hits += txy[z] == tx[ty[z]]
        return time.perf_counter() - t0

    @staticmethod
    def scale(reference_seconds: float) -> float:
        return REFERENCE_NOMINAL_S / reference_seconds


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.seconds: list[float] = []  # per instance, as measured
        self.scaled: list[float] = []  # per instance, at reference speed
        self.outcomes: list = []
        self.failures: list[str] = []


def run_pass(wl, sg, items, tr, ref=None) -> Pass:
    """One pass over the batch.  A full garbage collection before each
    instance, outside its time, leaves it to pay for the collections its own
    allocations trigger, not for those the earlier instances left due."""
    p = Pass()
    before = ref.measure() if ref else 0.0
    t0 = time.perf_counter()
    for i, item in enumerate(items):
        tr.instance = i
        gc.collect()
        s = time.perf_counter()
        outcome = None
        try:
            outcome = tr.call("bench.instance", wl.run_item, item, tr)
        except (sg.StateCapError, MemoryError) as e:
            p.failures.append(f"item {i}: budget exceeded: {e!r}")
        except Exception:
            p.failures.append(f"item {i}: {traceback.format_exc()}")
        p.seconds.append(time.perf_counter() - s)
        if ref:
            after = ref.measure()
            p.scaled.append(p.seconds[-1] * ref.scale((before + after) / 2))
            before = after
        if outcome is not None and wl.incomplete(outcome):
            p.failures.append(f"item {i}: incomplete answer where a complete one is required")
            outcome = None
        p.outcomes.append(outcome)
    p.wall = time.perf_counter() - t0
    return p


def pass_counts(wl, p: Pass) -> dict[str, int]:
    total: dict[str, int] = {}
    for outcome in p.outcomes:
        if outcome is not None:
            for key, value in wl.counts(outcome).items():
                total[key] = total.get(key, 0) + value
    return total


class Gate:
    """Oracle and determinism gate; runs outside every timed region."""

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.wrong = 0
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] | None = None
        self.nondeterministic: list[str] = []

    def check(self, p: Pass) -> None:
        self.attempted += len(p.outcomes)
        self.failed += len(p.failures)
        for message in p.failures[:3]:
            print(f"FAILED {message}", file=sys.stderr)
        for i, (item, outcome) in enumerate(zip(self.items, p.outcomes)):
            if outcome is None:
                continue
            errors = self.wl.check_item(item, outcome)
            if errors:
                self.wrong += 1
                print(f"WRONG item {i}: {'; '.join(errors)}", file=sys.stderr)
        counts = pass_counts(self.wl, p)
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.nondeterministic.append(f"counts changed between passes: {self.counts} -> {counts}")

    def compare_with_earlier_run(self, fingerprint: dict) -> None:
        """Counts must repeat across runs of one seed on one version of the code."""
        OUT.mkdir(exist_ok=True)
        path = OUT / f"counts-{fingerprint['workload']}-{fingerprint['seed']}.json"
        record = {"fingerprint": fingerprint, "code_sha256": code_hash(), "counts": self.counts}
        if path.exists():
            earlier = json.loads(path.read_text())
            same_inputs = (earlier["fingerprint"], earlier["code_sha256"]) == (
                record["fingerprint"], record["code_sha256"])
            if same_inputs and earlier["counts"] != self.counts:
                self.nondeterministic.append(
                    f"counts differ from an earlier run of this seed: {earlier['counts']} -> {self.counts}")
        path.write_text(json.dumps(record, indent=1) + "\n")

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.nondeterministic


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sgisect").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def nearest_rank(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


def tail_percentile(instances: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND instances above it, and
    the median for a batch too small to have one above the median."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / instances)))


def end_to_end(args, wl, sg, items, first_setup: float, gate: Gate, deadline: float):
    """The set-up samples, then whole passes over the batch until the next
    one, if as slow as the slowest so far, would end after the deadline.

    Instance times are taken at reference speed (see Reference), and each
    figure is a median over the passes: of the pass totals for wall_s, of each
    instance's runs for the per-instance figures.
    """
    from tracing import Untraced

    setup_s = setup_seconds(args, first_setup)
    tr = Untraced()
    ref = Reference()
    passes = []
    while True:
        p = run_pass(wl, sg, items, tr, ref)
        gate.check(p)
        p.outcomes.clear()  # keeping them would make peak RSS grow with the pass count
        passes.append(p)
        if len(passes) >= MIN_PASSES and time.perf_counter() + max(q.wall for q in passes) > deadline:
            break
    per_instance = [statistics.median(times) for times in zip(*(q.scaled for q in passes))]
    pct = tail_percentile(len(items))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(q.scaled) for q in passes), "s"),
        "instance_p50_s": (statistics.median(per_instance), "s"),
        "instance_tail_s": (nearest_rank(per_instance, pct), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} set-ups",
        "wall_s": f"median of {len(passes)} passes of {len(items)} instances; "
                  f"as measured {statistics.median(q.wall for q in passes):.4g} s",
        "instance_p50_s": f"median of {len(items)} instances, each the median of {len(passes)} runs",
        "instance_tail_s": f"p{pct} of the same {len(items)} instances",
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"samples-{args.workload}-{args.seed}.json").write_text(json.dumps(
        {"pass_wall_s": [q.wall for q in passes], "instance_s": [q.seconds for q in passes],
         "instance_scaled_s": [q.scaled for q in passes]}) + "\n")
    return metrics, notes


def sweep_depths(wl, sg, tr, outcomes, metrics) -> None:
    """Per-depth states and BFS seconds (the solver's own stats) by calling
    bounded_solve(instance, d) for d = 1..depth-1; for d = depth the li_solve
    result stands in, since it ran the same search to its end, closing an
    UNSAT search included.  Also the deduplication yield, new states /
    (parents x |A|)."""
    layer_states = [0] * (DEPTHS + 1)
    layer_seconds = [0.0] * (DEPTHS + 1)
    states = candidates = 0
    for i, outcome in enumerate(outcomes):
        if not isinstance(outcome, wl.SatOutcome):
            continue
        tr.instance = i
        instance, result = outcome.instance, outcome.result
        depth = result.stats.max_depth
        cap = 2 * max(r.li_degree for r in outcome.reports)
        prev_states, prev_seconds, parents = 0, 0.0, 1
        for d in range(1, depth + 1):
            stats = tr.call("solve.bounded", sg.bounded_solve, instance, d).stats if d < depth else result.stats
            explored, seconds = stats.states_explored, stats.wall_time
            new = explored - prev_states
            layer_states[min(d, DEPTHS)] += new
            layer_seconds[min(d, DEPTHS)] += seconds - prev_seconds
            candidates += parents * instance.alphabet_size
            prev_states, prev_seconds, parents = explored, seconds, new
        if not result.satisfiable and depth < cap:
            candidates += parents * instance.alphabet_size  # the search closed on an empty layer
        states += result.stats.states_explored
    for d in range(1, DEPTHS + 1):
        metrics[f"solve.depth_states.{d}"] = (layer_states[d], "count")
        metrics[f"solve.depth_s.{d}"] = (layer_seconds[d], "s")
    metrics["solve.dedup_yield"] = (states / candidates if candidates else 0.0, "ratio")


def recheck_tables(wl, sg, tr, outcomes, metrics) -> None:
    """core.check_associative runs inside parsing; time it alone on the
    distinct parsed tables."""
    tr.instance = -1
    tables = {}
    for outcome in outcomes:
        if isinstance(outcome, wl.TableOutcome):
            tables[outcome.parsed.table] = outcome.parsed
        elif isinstance(outcome, wl.SatOutcome):
            for c in outcome.instance.constraints:
                tables[c.semigroup.table] = c.semigroup
    t0 = time.perf_counter()
    for table in tables:
        tr.call("core.check_associative", sg.check_associative, table)
    metrics["core.check_associative_s"] = (time.perf_counter() - t0, "s")
    metrics["core.table_cells"] = (sum(len(t) ** 2 for t in tables), "count")


def enum_yield(wl, sg, outcomes, metrics) -> None:
    """Distinct produced words / SLPs enumerated, over the SLPs each
    enum_slp_solve call walked (always a prefix of one enumeration)."""
    tried = [o.result.stats.states_explored for o in outcomes if isinstance(o, wl.SlpOutcome)]
    distinct_upto = [0]
    seen = set()
    for G in itertools.islice(sg.enumerate_slps(wl.SLP_ALPHABET, wl.SLP_SIZE_BOUND), max(tried, default=0)):
        seen.add(oracle.expand_slp(G.rhs, G.start))
        distinct_upto.append(len(seen))
    enumerated = sum(tried)
    metrics["slp.enumerated"] = (enumerated, "count")
    metrics["slp.enum_yield"] = (sum(distinct_upto[t] for t in tried) / enumerated if enumerated else 0.0,
                                 "ratio")


def first_pass_counts(wl, first: Pass, tr, metrics) -> None:
    """Work counts of the first traced pass."""
    sat = [o for o in first.outcomes if isinstance(o, wl.SatOutcome)]
    slp = [o for o in first.outcomes if isinstance(o, wl.SlpOutcome)]
    metrics["solve.states"] = (sum(o.result.stats.states_explored for o in sat), "count")
    metrics["solve.depth"] = (sum(o.result.stats.max_depth for o in sat), "layers")
    metrics["formats.bytes"] = (pass_counts(wl, first).get("formats.bytes", 0), "bytes")
    metrics["reductions.constraints"] = (sum(len(o.instance.constraints) for o in sat), "count")
    circuits = [c for o in slp for c in o.circuits]
    gates = sum(g for g, _, _ in circuits)
    bound = sum(b for _, _, b in circuits)
    metrics["circuits.gates"] = (gates, "count")
    metrics["circuits.depth"] = (max((d for _, d, _ in circuits), default=0), "layers")
    metrics["circuits.bound_ratio"] = (gates / bound if bound else 0.0, "ratio")
    metrics["trace.spans"] = (len(tr.spans), "count")


def per_layer(args, wl, sg, items, gate: Gate, deadline: float):
    """Pairs of an untraced and a traced pass, the probes after the first
    pair, and more pairs while the next one would end before the deadline."""
    from tracing import Tracer, Untraced

    metrics = {}
    probes = Tracer()
    untraced, traced = [], []
    while True:
        # alternate which of the pair runs first, so drift does not read as overhead
        for traced_turn in (False, True) if len(traced) % 2 == 0 else (True, False):
            tr = Tracer() if traced_turn else Untraced()
            p = run_pass(wl, sg, items, tr)
            gate.check(p)
            (traced if traced_turn else untraced).append((p, tr))
        if len(traced) == 1:
            first, tr = traced[0]
            first_pass_counts(wl, first, tr, metrics)
            sweep_depths(wl, sg, probes, first.outcomes, metrics)
            recheck_tables(wl, sg, probes, first.outcomes, metrics)
            enum_yield(wl, sg, first.outcomes, metrics)
        for p, _ in untraced + traced:
            p.outcomes.clear()
        pair = max(p.wall for p, _ in untraced) + max(p.wall for p, _ in traced)
        if time.perf_counter() + pair > deadline:
            break

    span_totals = [tr.totals() for _, tr in traced]
    for name in PER_LAYER_SPANS:
        metrics[f"{name}_s"] = (statistics.median(t.get(name, 0.0) for t in span_totals), "s")
    self_times = [tr.self_times() for _, tr in traced]
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(t.get(layer, 0.0) for t in self_times), "s")
    solve_s = metrics["solve.solve_s"][0]
    metrics["solve.states_per_s"] = (metrics["solve.states"][0] / solve_s if solve_s else 0.0, "1/s")

    wall_untraced = statistics.median(p.wall for p, _ in untraced)
    wall_traced = statistics.median(p.wall for p, _ in traced)
    metrics["trace.untraced_wall_s"] = (wall_untraced, "s")
    metrics["trace.traced_wall_s"] = (wall_traced, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")

    OUT.mkdir(exist_ok=True)
    traced[0][1].write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    probes.write(OUT / f"probe-spans-{args.workload}-{args.seed}.jsonl")
    notes = {"trace.overhead_s": f"{len(traced)} traced and {len(untraced)} untraced passes"}
    return metrics, notes


def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "sgisect" / "__init__.py").is_file():
        print(f"error: no sgisect package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    fix_mmap_threshold()

    specs = inputs.draw(args.workload, args.seed)
    first_setup, wl, items = setup(specs)
    if args.setup_only:
        print(first_setup)
        return 0
    import sgisect as sg

    fingerprint = inputs.fingerprint(args.workload, args.seed, specs)
    gate = Gate(wl, items)
    deadline = started + args.seconds
    if args.trace:
        metrics, notes = per_layer(args, wl, sg, items, gate, deadline)
    else:
        metrics, notes = end_to_end(args, wl, sg, items, first_setup, gate, deadline)
    gate.compare_with_earlier_run(fingerprint)
    for message in gate.nondeterministic:
        print(f"NONDETERMINISTIC {message}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ran {time.perf_counter() - started:.1f} s of {args.seconds:g}")
    print(f"inputs   {json.dumps(fingerprint)}")
    print(f"counts   {json.dumps(gate.counts)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit:8s} {notes.get(name, '')}")
    print(f"{'wrong_answers':28s} {gate.wrong:>16d} {'count':8s} must be 0")
    print(f"{'failed_share':28s} {gate.failed / gate.attempted:>16.6g} {'ratio':8s} "
          f"{gate.failed} of {gate.attempted} attempted")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
