"""One benchmark process: set up a workload, run it closed-loop, check it.

    python perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --launched-at T [--setup-only]

run.py starts this with PYTHONPATH set to the checkout's src and BLAS
pinned to one thread. --launched-at is the time.monotonic() value just
before the launch, so set-up time includes interpreter start and imports.
The last line printed is one JSON object.

One caller, one op in flight. An op is the workload's unit of user work:
- bundled_study: one scenario of the bundled grid, run_scenario then
  emit_report as md and csv;
- feeder_sweep: run_scenario on a seeded 200-bus feeder, faulting every
  bus (size_ufcl once, then solve_fault at each bus at its limiter
  state), then emit_report as md and csv;
- cli_process: one `python -m protcoord.studio run` process.
Every op's output is checked outside its timed region; an op that raises
or disagrees counts as failed.

Untraced, each op is paired with a control: a fixed piece of benchmark
code of the same kind, timed just before the op. The host's speed swings
by up to 1.8x within a second and drifts over minutes. The ratio of an
op to its control stays steady. End-to-end times are that ratio times the
control's reference time on the reference machine (2-vCPU Xeon,
Python 3.11, numpy 2.4 with OpenBLAS 0.3.31). The wall-clock figures are
reported next to them.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from feeder import make_feeder
from run import INTERPRETER_REF_S, interpreter_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

REL_TOL = 1e-9  # relative, with a 1 A floor, as the test suite compares
SIZING_TOL = 0.005  # size_ufcl's default, which run_scenario uses
FEEDER_BUSES = 200
# size ladder: (buses, fault buses sampled, passes over the sample)
LADDER = ((50, 8, 3), (200, 8, 1), (800, 4, 1))
SPAN_CAP = 150_000  # a traced run stops early rather than hold more
PROBE_REPS = 5


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def import_studio():
    """protcoord.studio, which must come from the checkout's src."""
    import protcoord.studio
    src = Path(protcoord.__file__).resolve()
    if not src.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"protcoord imported from {src}, not the checkout")
    return protcoord.studio


def require_valid(netmodel, net) -> None:
    problems = netmodel.validate(net)
    if problems:
        raise RuntimeError(f"network fails validate: {problems[0]}")


def bump_first_current(out):
    """The op output with its first fault current off by 1e-6 relative."""
    rep, md, csv = out
    t0 = rep.fault_tables[0]
    t0 = replace(t0, fault_current_a=t0.fault_current_a * (1 + 1e-6))
    return replace(rep, fault_tables=(t0,) + rep.fault_tables[1:]), md, csv


class BundledStudy:
    """All 7 SCENARIOS on the bundled grid, in a seeded order.

    The reference is oracle_solve at each fault bus's limiter resistance;
    every pass must also be identical to the warm-up pass.
    """

    rusage = resource.RUSAGE_SELF
    control_ref_s = 0.00040

    def __init__(self, seed: int):
        from reference import ZbusReference
        self.studio = studio = import_studio()
        from protcoord import bundled_dataset_path, netmodel
        self.net = netmodel.load_network(bundled_dataset_path().read_text())
        require_valid(netmodel, self.net)
        self.n_buses = len(self.net.buses)
        self.keys = sorted(studio.SCENARIOS)
        random.Random(seed).shuffle(self.keys)
        self.first = {key: self.op(key) for key in self.keys}
        self.zbus = ZbusReference
        self.control_doc = make_feeder(16, seed)

    def control(self) -> None:
        """Interpreter-bound work with small numpy calls, like a study:
        a 16-bus Z-bus and a dict-and-integer loop."""
        self.zbus(self.control_doc)
        acc, table = 0, {}
        for i in range(3000):
            acc += i * i
            table[i & 255] = acc

    def op(self, key):
        rep = self.studio.run_scenario(self.net, self.studio.SCENARIOS[key])
        return (rep, self.studio.emit_report(rep, "md"),
                self.studio.emit_report(rep, "csv"))

    def is_ufcl(self, key) -> bool:
        return self.studio.SCENARIOS[key].ufcl_enabled

    def reference(self) -> None:
        from protcoord.faultcalc import FaultSpec, oracle_solve
        self.expected = {}
        for key, (rep, _, _) in self.first.items():
            snet = self.studio.build_scenario_net(
                self.net, self.studio.SCENARIOS[key])
            self.expected[key] = {}
            for t in rep.fault_tables:
                sol = oracle_solve(snet, FaultSpec(t.fault_bus),
                                   ufcl_state_ohm=t.ufcl_state_ohm)
                self.expected[key][t.fault_bus] = (
                    sol.fault_current_a,
                    {r.id: abs(sol.branch_currents[r.branch])
                     for r in snet.relays})

    def check(self, key, out) -> bool:
        if out != self.first[key]:
            return False
        expected = self.expected[key]
        for t in out[0].fault_tables:
            i_f, relays = expected[t.fault_bus]
            if not close(t.fault_current_a, i_f):
                return False
            if {r.relay for r in t.readings} != set(relays):
                return False
            if not all(close(r.current_a, relays[r.relay])
                       for r in t.readings):
                return False
        return True

    corrupt = staticmethod(bump_first_current)


class FeederSweep:
    """Fault-level study of a seeded 200-bus feeder with 4 DGs.

    The reference is ZbusReference, built from the generated element list
    at each limiter resistance the study used and at R = 0 without DG for
    the sizing target.
    """

    rusage = resource.RUSAGE_SELF
    control_ref_s = 0.0053

    def __init__(self, seed: int):
        import numpy as np
        self.studio = studio = import_studio()
        from protcoord import faultcalc, netmodel
        self.doc = make_feeder(FEEDER_BUSES, seed)
        self.net = netmodel.load_network(json.dumps(self.doc))
        require_valid(netmodel, self.net)
        self.upstream, _ = netmodel.partition_by_tie(self.net, "tie")
        self.n_buses = len(self.net.buses)
        self.sizing_bus = self.doc["ufcl"]["sizing_fault_bus"]
        dgs = frozenset(s.id for s in self.net.sources
                        if s.kind != "infinite_grid")
        self.scenario = studio.Scenario(
            "feeder_sweep", dgs, ufcl_enabled=True,
            fault_buses=tuple(self.net.bus_ids()))
        self.keys = ["sweep"]
        # one solve brings in LAPACK before the first timed op
        faultcalc.solve_fault(self.net, faultcalc.FaultSpec(self.sizing_bus))
        self.first = None
        rng = np.random.default_rng(seed)
        self.control_a = (rng.random((FEEDER_BUSES, FEEDER_BUSES))
                          + 1j * rng.random((FEEDER_BUSES, FEEDER_BUSES)))
        self.control_b = np.ones(FEEDER_BUSES, dtype=complex)
        self.solve = np.linalg.solve

    def control(self) -> None:
        """Four dense complex solves of the feeder's size."""
        for _ in range(4):
            self.solve(self.control_a, self.control_b)

    def op(self, key):
        rep = self.studio.run_scenario(self.net, self.scenario)
        return (rep, self.studio.emit_report(rep, "md"),
                self.studio.emit_report(rep, "csv"))

    def is_ufcl(self, key) -> bool:
        return True

    def reference(self) -> None:
        from reference import ZbusReference
        self.bare = ZbusReference(self.doc, 0.0, with_dg=False)
        self.refs = {}

    def _ref(self, r_ohm: float):
        from reference import ZbusReference
        if r_ohm not in self.refs:
            self.refs[r_ohm] = ZbusReference(self.doc, r_ohm)
        return self.refs[r_ohm]

    def check(self, key, out) -> bool:
        if self.first is None:
            self.first = out
        elif out != self.first:
            return False
        rep = out[0]
        s = rep.sizing
        if s is None or abs(s.achieved_current_a - s.target_current_a) \
                > SIZING_TOL * s.target_current_a:
            return False
        if not (close(s.target_current_a,
                      self.bare.fault_current_a(self.sizing_bus))
                and close(s.achieved_current_a,
                          self._ref(s.r_star).fault_current_a(
                              self.sizing_bus))):
            return False
        if [t.fault_bus for t in rep.fault_tables] != self.net.bus_ids():
            return False
        for t in rep.fault_tables:
            r_ohm = s.r_star if t.fault_bus in self.upstream else 0.0
            if t.ufcl_state_ohm != r_ohm:
                return False
            ref = self._ref(r_ohm)
            if not close(t.fault_current_a, ref.fault_current_a(t.fault_bus)):
                return False
            for r in t.readings:
                branch = self.net.relay_by_id(r.relay).branch
                if not close(r.current_a,
                             ref.branch_current_a(branch, t.fault_bus)):
                    return False
        return True

    corrupt = staticmethod(bump_first_current)


def _cli_command(scenario: str, fmt: str) -> list[str]:
    return ["-m", "protcoord.studio", "run", "--scenario", scenario,
            "--format", fmt]


# The 7 scenarios of the bundled grid, as `run --scenario` takes them.
SCENARIO_IDS = ("s0_no_dg", "s1_dg1", "s2_dg1_ufcl", "s3_dg1_dg2",
                "s4_dg1_dg2_ufcl", "s5_induction_dg1",
                "s6_induction_dg1_ufcl")

# Expected CLI output from the library, computed in its own process.
EXPECTED_CODE = """\
import json, sys
import protcoord
from protcoord import studio
from protcoord.netmodel import load_network
net = load_network(protcoord.bundled_dataset_path().read_text())
out = {"module": protcoord.__file__, "buses": len(net.buses),
       "ufcl": [], "expected": {}}
for sid, scenario in studio.SCENARIOS.items():
    rep = studio.run_scenario(net, scenario)
    if scenario.ufcl_enabled:
        out["ufcl"].append(sid)
    for fmt in ("md", "csv"):
        out["expected"][f"{sid} {fmt}"] = [
            0 if rep.coordination.all_ok else 2, studio.emit_report(rep, fmt)]
json.dump(out, sys.stdout)
"""


class CliProcess:
    """Fresh CLI processes over the 7 scenarios, md and csv, seeded order.

    The reference is the library's emit_report text and the exit code
    `0 if all_ok else 2`; stdout must match it byte for byte. This worker
    imports neither protcoord nor numpy: a child's peak RSS includes its
    parent's at launch, so the parent must stay smaller than the CLI.
    """

    rusage = resource.RUSAGE_CHILDREN  # the CLI processes, not this one
    control_ref_s = INTERPRETER_REF_S

    @staticmethod
    def control() -> None:
        interpreter_start()

    def __init__(self, seed: int):
        self.keys = [(sid, fmt) for sid in SCENARIO_IDS
                     for fmt in ("md", "csv")]
        random.Random(seed).shuffle(self.keys)
        self.first = self.op(self.keys[0])  # warm-up: page cache, bytecode

    def _run(self, argv: list[str]):
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def op(self, key):
        return self._run(_cli_command(*key))

    def op_traced(self, key, tracer):
        """The same command run through traced_cli.py; adopts its spans."""
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / "cli-spans.json"
        out = self._run([str(HERE / "traced_cli.py"), str(spans_file),
                         str(tracer.op), *_cli_command(*key)[2:]])
        tracer.adopt(json.loads(spans_file.read_text()), tracer.current())
        spans_file.unlink()
        return out

    def is_ufcl(self, key) -> bool:
        return key[0] in self.ufcl

    def reference(self) -> None:
        proc = subprocess.run([sys.executable, "-c", EXPECTED_CODE],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        ref = json.loads(proc.stdout)
        src = Path(ref["module"]).resolve()
        if not src.is_relative_to(ROOT / "src"):
            raise RuntimeError(f"protcoord imported from {src}, "
                               f"not the checkout")
        if {k.split()[0] for k in ref["expected"]} != set(SCENARIO_IDS):
            raise RuntimeError("the bundled scenarios are not the 7 this "
                               "workload cycles over")
        self.n_buses = ref["buses"]
        self.ufcl = set(ref["ufcl"])
        self.expected = {tuple(k.split()): (code, text.encode())
                         for k, (code, text) in ref["expected"].items()}

    def check(self, key, out) -> bool:
        return out == self.expected[key]

    @staticmethod
    def corrupt(out):
        code, stdout = out
        return code, stdout[:-1] + bytes([stdout[-1] ^ 1])


WORKLOADS = {"bundled_study": BundledStudy, "feeder_sweep": FeederSweep,
             "cli_process": CliProcess}


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile up to p99 that leaves
    at least ten samples above it."""
    n = len(values)
    if n < 20:
        raise RuntimeError(f"{n} samples; a tail at or above the median "
                           f"needs 20 (raise --seconds)")
    q = min(0.99, (n - 10) / n)
    return q, sorted(values)[math.ceil(q * n) - 1]


def run_ops(wl, seconds: float, tracer):
    """Closed loop over the workload's keys for `seconds`.

    Untraced, every op is plain and follows its control. Traced, there is
    no control, and whole cycles over the keys alternate between plain
    and traced, so both sets hold every key; the loop also stops once the
    tracer holds SPAN_CAP spans.
    """
    lat = {False: [], True: []}  # traced? -> [(key, seconds, control s)]
    attempted = failed = 0
    first_error = None
    last_ok = None
    end = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < end:
        traced = tracer is not None and cycle % 2 == 1
        if tracer is not None:
            if len(tracer.spans) >= SPAN_CAP:
                break
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        for key in wl.keys:
            call = wl.op
            if traced:
                tracer.op = attempted
                call = tracer.wrap("bench.op", getattr(
                    wl, "op_traced", lambda k, _tracer: wl.op(k)))
            attempted += 1
            control_s = None
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    wl.control()
                    control_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                out = call(key, tracer) if traced else call(key)
                lat[traced].append((key, time.perf_counter() - t0, control_s))
                error = None if wl.check(key, out) else "output check failed"
            except Exception as exc:  # a failed op is counted, not fatal
                error = repr(exc)
            if error is None:
                last_ok = (key, out)
            else:
                failed += 1
                first_error = first_error or f"{key}: {error:.300}"
            if time.perf_counter() >= end:
                break
        cycle += 1
    if tracer is not None:
        tracer.uninstall()
    return lat, attempted, failed, first_error, last_ok


def selfcheck(wl, last_ok) -> bool:
    """A deliberately corrupted output must be counted as failed."""
    if last_ok is None:
        return False
    key, out = last_ok
    return wl.check(key, out) and not wl.check(key, wl.corrupt(out))


def end_to_end(wl, lat) -> tuple[dict, dict]:
    """Op times as op/control ratios scaled by the control's reference
    time; wall-clock figures go to the info record."""
    ref = wl.control_ref_s
    ratios = [d / c for _, d, c in lat]
    ufcl = [d / c for key, d, c in lat if wl.is_ufcl(key)]
    q, tail_ratio = tail(ratios)
    walls = [d for _, d, _ in lat]
    peak_kb = resource.getrusage(wl.rusage).ru_maxrss
    metrics = {
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "study_ms_p50": (statistics.median(ratios) * ref * 1e3, "ms"),
        "study_ms_tail": (tail_ratio * ref * 1e3, "ms"),
        "studies_per_s": (1.0 / (statistics.fmean(ratios) * ref), "1/s"),
        "ufcl_study_ms_p50": (statistics.median(ufcl) * ref * 1e3, "ms"),
    }
    info = {"samples": len(ratios), "ufcl_samples": len(ufcl),
            "tail_percentile": round(100 * q, 2),
            "tail_samples_above": len(ratios) - math.ceil(q * len(ratios)),
            "control_ref_ms": ref * 1e3,
            "wall_control_ms_p50": statistics.median(
                c for _, _, c in lat) * 1e3,
            "wall_study_ms_p50": statistics.median(walls) * 1e3,
            "wall_study_ms_tail": tail(walls)[1] * 1e3,
            "wall_studies_per_s": len(walls) / sum(walls)}
    return metrics, info


def ladder(seed: int) -> dict:
    """Median solve_fault wall time at 7, 50, 200 and 800 buses."""
    from protcoord import bundled_dataset_path, faultcalc, netmodel
    nets = {7: (netmodel.load_network(bundled_dataset_path().read_text()),
                None, 20)}
    for n, sample, passes in LADDER:
        net = netmodel.load_network(json.dumps(make_feeder(n, seed)))
        require_valid(netmodel, net)
        netmodel.partition_by_tie(net, "tie")
        nets[n] = (net, sample, passes)
    out = {}
    for n, (net, sample, passes) in nets.items():
        ids = net.bus_ids()
        buses = ids if sample is None else ids[::len(ids) // sample][:sample]
        faultcalc.solve_fault(net, faultcalc.FaultSpec(buses[0]))
        times = []
        for _ in range(passes):
            for bus in buses:
                t0 = time.perf_counter()
                faultcalc.solve_fault(net, faultcalc.FaultSpec(bus))
                times.append(time.perf_counter() - t0)
        out[f"faultcalc.solve_fault.n{n}_us"] = (
            statistics.median(times) * 1e6, "us")
    return out


# A CLI run that reports when its own code started and when
# protcoord.studio finished importing, on stderr, before running.
PROBE_CODE = """\
import sys, time
started = time.monotonic()
import protcoord.studio
sys.stderr.write(f"{started!r} {time.monotonic()!r}\\n")
protcoord.studio.cli.main(args=sys.argv[1:], prog_name="protcoord")
"""


def process_probe() -> dict:
    """Median split of a fresh CLI process (s2_dg1_ufcl, md): interpreter
    start, import of protcoord.studio, and the remainder (the command and
    process exit)."""
    parts = {"interpreter": [], "import": [], "compute": []}
    for _ in range(PROBE_REPS):
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE_CODE,
             *_cli_command("s2_dg1_ufcl", "md")[2:]],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        ended = time.monotonic()
        if proc.returncode not in (0, 2):
            raise RuntimeError(f"probe exited {proc.returncode}: "
                               f"{proc.stderr[-300:]}")
        started, imported = map(float, proc.stderr.split()[:2])
        parts["interpreter"].append(started - launched)
        parts["import"].append(imported - started)
        parts["compute"].append(ended - imported)
    return {f"process.{name}_s": (statistics.median(values), "s")
            for name, values in (("interpreter", parts["interpreter"]),
                                 ("import_studio", parts["import"]),
                                 ("compute", parts["compute"]))}


def per_layer(wl, tracer, lat) -> tuple[dict, dict]:
    from tracer import LINALG, children_per_call, rollup
    layers, ops, below_root_s = rollup(tracer.spans, "bench.op")
    if ops == 0:
        raise RuntimeError("the traced run completed no traced op")

    # a layer with no spans (its function gone from the program) reads 0
    def self_us(name):
        return (layers.get(name, {"self_us": 0.0})["self_us"], "us")

    def per_op(name):
        return (layers.get(name, {"calls": 0})["calls"] / ops, "count")

    solves = layers["faultcalc.solve_fault"]["incl_us"]
    q, solve_tail = tail(solves)
    plain = statistics.median(d for _, d, _ in lat[False])
    traced = statistics.median(d for _, d, _ in lat[True])
    op_mean_s = statistics.fmean(layers["bench.op"]["incl_us"]) / 1e6
    out = {
        "faultcalc.solve_fault_us": self_us("faultcalc.solve_fault"),
        "faultcalc.solve_fault.calls": per_op("faultcalc.solve_fault"),
        "faultcalc.solve_fault.p50_us": (statistics.median(solves), "us"),
        "faultcalc.solve_fault.tail_us": (solve_tail, "us"),
        "faultcalc.build_ybus_us": self_us("faultcalc.build_ybus"),
        "faultcalc.linalg_us": self_us(LINALG),
        "faultcalc.factorizations": per_op(LINALG),
        "faultcalc.matrix_bytes": (16 * wl.n_buses ** 2, "B"),
        "netmodel.to_per_unit_us": self_us("netmodel.to_per_unit"),
        "netmodel.partition_by_tie_us": self_us("netmodel.partition_by_tie"),
        "netmodel.load_network_us": self_us("netmodel.load_network"),
        "netmodel.validate_us": self_us("netmodel.validate"),
        "ufcl.size_ufcl_us": self_us("ufcl.size_ufcl"),
        "ufcl.size_ufcl.evals": (children_per_call(
            tracer.spans, "ufcl.size_ufcl", "faultcalc.solve_fault"),
            "count"),
        "ufcl.classify_fault_side_us": self_us("ufcl.classify_fault_side"),
        "relaycurve.operate_time_us": self_us("relaycurve.operate_time"),
        "relaycurve.operate_time.calls": per_op("relaycurve.operate_time"),
        "coordination.check_pairs_us": self_us("coordination.check_pairs"),
        "studio.run_scenario_us": self_us("studio.run_scenario"),
        "studio.emit_report_us": self_us("studio.emit_report"),
        "trace.overhead_frac": (traced / plain - 1.0, "ratio"),
        "trace.accounted_frac": (below_root_s / op_mean_s, "ratio"),
    }
    info = {"traced_ops": ops, "plain_ops": len(lat[False]),
            "spans": len(tracer.spans),
            "untraced_sites": sorted(tracer.missing),
            "solve_fault_tail_percentile": round(100 * q, 2),
            "solve_fault_samples": len(solves)}
    return out, info


def blas_info() -> dict:
    import numpy as np
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": cfg.get("name"),
            "blas_version": cfg.get("version")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.launched_at
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.reference()
    lat, attempted, failed, first_error, last_ok = run_ops(
        wl, args.seconds, tracer)
    if tracer is None:
        metrics, info = end_to_end(wl, lat[False])
        metrics["setup_s"] = (setup_s, "s")
    else:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        metrics, info = per_layer(wl, tracer, lat)
        metrics.update(ladder(args.seed))
        metrics.update(process_probe())
    result = {"attempted": attempted, "failed": failed,
              "selfcheck_corrupted_counted": selfcheck(wl, last_ok),
              "first_error": first_error, "env": blas_info(),
              "metrics": metrics, "info": info}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
