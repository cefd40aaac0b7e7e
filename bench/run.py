"""Seeded end-to-end benchmark of the invqm command line.

    python3 bench/run.py --workload presentations --seed 1 --seconds 15 \
        --trace 0

One process, one client, closed loop: the instances of a workload run one
after another through ``invqm.cli.main`` (stdout captured), each under a
SIGALRM time limit, and every output is checked against the independent
oracle in oracle.py.  A fixed pure-Python Fraction loop runs between
instances so that times can also be read relative to the host's speed at
that moment.  With ``--trace 1`` the run measures an untraced phase, then
installs tracer.py and measures a traced phase, and reports per-layer
metrics instead of end-to-end ones.  The last line of stdout is one JSON
object; a fuller record, with the run metadata, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

TIME_LIMIT_S = 5.0
SETUP_REPS = 15
MIN_INSTANCES = 100
# Calibration-loop seconds of the reference host: host-normalized times are
# raw times scaled by CAL_REF_S / (loop seconds measured around them).
CAL_REF_S = 0.002

# name -> unit; the order is the order printed.  Times are host-normalized.
END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "calibrated_time": "cal",
    "peak_rss_mb": "MB",
}
# The same metrics on the raw wall clock, printed and recorded beside them.
RAW = {"setup_s": "setup_raw_s", "instances_per_s": "instances_per_raw_s",
       "latency_p50_ms": "latency_p50_raw_ms",
       "latency_p90_ms": "latency_p90_raw_ms"}
SPAN_NAMES = (
    "cli.main", "linalg.rref", "linalg.smith_normal_form", "linalg.rank",
    "linalg.det", "linalg.exterior_square", "linalg.kernel_basis",
    "invhoms.constraint_space", "quotients.abelian_quotient",
    "quotients.h2_dim_semidirect", "words.parse_word", "words.mul",
    "words.pow", "magnus.quadratic_class", "magnus.wedge_class",
    "magnus.wedgevec_ops", "brooks.defect_lower_bound",
    "brooks.homogenize_eval", "brooks.qm_eval", "transgression.Transgressor",
)
COUNTERS = {
    "linalg.rref.cells": "count",
    "linalg.rank.cells": "count",
    "linalg.smith_normal_form.max_bits": "bits",
    "linalg.smith_normal_form.timeouts": "count",
    "invhoms.constraint_rows": "count",
    "words.mul.letters_in": "count",
    "magnus.quadratic_class.letters": "count",
    "brooks.qm_eval.letters": "count",
    "transgression.memo_hit_ratio": "ratio",
    "trace_overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s",
                      f"{name}.calls": "count"})
    for layer in tracing.LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count"})
    units.update(COUNTERS)
    return units


PER_LAYER = per_layer_units()

METHOD_SPANS = {f"{cls}.{method}": name
                for _, cls, method, name in tracing.METHODS}


class TimeLimit(BaseException):
    """Raised by the alarm; a BaseException so that the command line's own
    ``except Exception`` does not turn it into an exit code."""

    def __init__(self, where: str):
        super().__init__(where)
        self.where = where


def innermost_public(frame) -> str:
    """Name the tracer gives the innermost open public function or traced
    method at this frame; the tracer's own wrapper frames are skipped, so
    traced and untraced runs name the same layer."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("invqm."):
            code = frame.f_code
            qualname = getattr(code, "co_qualname", code.co_name)
            if qualname in METHOD_SPANS:
                return METHOD_SPANS[qualname]
            if "." not in qualname and "<" not in qualname \
                    and not qualname.startswith("_"):
                return f"{module[len('invqm.'):]}.{qualname}"
        frame = frame.f_back
    return "outside invqm"


_CAL_RNG = random.Random(0)
_CAL_MATRIX = [[_CAL_RNG.randint(-99, 99) for _ in range(16)]
               for _ in range(16)]
_CAL_WORD = tuple(_CAL_RNG.choice((1, -1, 2, -2)) for _ in range(4000))


def _fraction_sums() -> None:
    total = Fraction(0)
    for i in range(1000):
        total += Fraction(1, i % 13 + 1)


def _fraction_free_elimination() -> None:
    A = [row[:] for row in _CAL_MATRIX]
    prev = 1
    for c in range(len(A)):
        for i in range(c + 1, len(A)):
            for j in range(c + 1, len(A)):
                A[i][j] = (A[c][c] * A[i][j] - A[i][c] * A[c][j]) // prev
        prev = A[c][c]


def _word_scans() -> None:
    sum(1 for i in range(len(_CAL_WORD) - 1) if _CAL_WORD[i:i + 2] == (1, 2))
    stack: list[int] = []
    for x in _CAL_WORD + _CAL_WORD:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)


def calibration_loop() -> float:
    """Geometric mean of the seconds three fixed pure-Python kernels take:
    Fraction sums, fraction-free elimination on big integers, and scans and
    free reduction of a tuple word.  On a shared 2-core machine whose speed
    drifts, they slow down about as much as the workloads do; the Fraction
    sums alone over-correct by a quarter."""
    product = 1.0
    for kernel in (_fraction_sums, _fraction_free_elimination, _word_scans):
        start = perf_counter()
        kernel()
        product *= perf_counter() - start
    return product ** (1 / 3)


@dataclass
class Record:
    label: str
    seconds: float
    status: str          # ok | wrong | exit | timeout
    detail: str = ""
    cal: float = 0.0     # calibration-loop seconds around the instance

    @property
    def normalized(self) -> float:
        """Seconds scaled to the reference host's speed."""
        return self.seconds * CAL_REF_S / self.cal

    def to_json(self) -> dict:
        return {"label": self.label, "ms": self.seconds * 1e3,
                "cal_ms": self.cal * 1e3, "status": self.status,
                "detail": self.detail}


@dataclass
class Phase:
    records: list[Record]
    passes: int

    @property
    def failed(self) -> int:
        return sum(r.status != "ok" for r in self.records)

    @property
    def calibrated_time(self) -> float:
        """Instance time over calibration-loop time, per pass of the mix."""
        return sum(r.seconds / r.cal for r in self.records) / self.passes


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


class Runner:
    """Runs instances of one workload under the time limit."""

    def __init__(self):
        self.cli = None
        self.tracer: tracing.Tracer | None = None
        self.timeouts: dict[str, int] = {}
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        raise TimeLimit(innermost_public(frame))

    def import_invqm(self) -> None:
        """Import invqm from this checkout's src/, afresh."""
        for name in [m for m in sys.modules
                     if m == "invqm" or m.startswith("invqm.")]:
            del sys.modules[name]
        cli = importlib.import_module("invqm.cli")
        if Path(cli.__file__).resolve().parent.parent != SRC:
            raise ImportError(f"invqm imported from {cli.__file__}, "
                              f"not from {SRC}")
        self.cli = cli

    def execute(self, inst: workloads.Instance) -> Record:
        out = io.StringIO()
        if self.tracer is not None:
            self.tracer.instance += 1
        start = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = self.cli.main(inst.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except TimeLimit as exc:
            seconds = perf_counter() - start
            self.timeouts[exc.where] = self.timeouts.get(exc.where, 0) + 1
            if self.tracer is not None:
                self.tracer.stack.clear()
            return Record(inst.label, seconds, "timeout", exc.where)
        except SystemExit as exc:
            code = exc.code
        seconds = perf_counter() - start
        if code != 0:
            return Record(inst.label, seconds, "exit", f"exit code {code}")
        reason = inst.verify(out.getvalue())
        if reason is not None:
            return Record(inst.label, seconds, "wrong", reason)
        return Record(inst.label, seconds, "ok")

    def timed_phase(self, mix, seconds: float, min_instances: int) -> Phase:
        """Whole passes over the mix until the instances have taken
        `seconds` and at least `min_instances` have run."""
        records: list[Record] = []
        passes = 0
        busy = 0.0
        cal_before = calibration_loop()
        while busy < seconds or len(records) < min_instances:
            for inst in mix:
                record = self.execute(inst)
                cal_after = calibration_loop()
                record.cal = (cal_before + cal_after) / 2
                cal_before = cal_after
                busy += record.seconds
                records.append(record)
            passes += 1
        return Phase(records, passes)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(phase: Phase, setups: list[Record],
               peak_rss_mb: float | None) -> dict:
    """name -> (value, sample count), host-normalized and raw; peak_rss_mb
    is None when it is not the workload's own."""
    records = phase.records
    n, ok = len(records), sum(r.status == "ok" for r in records)
    out = {}
    for key, attr in (("", "normalized"), ("raw", "seconds")):
        def times(rs):
            return [getattr(r, attr) for r in rs]
        out[key] = {
            "setup_s": (statistics.median(times(setups)), len(setups)),
            "instances_per_s": (ok / sum(times(records)), n),
            "latency_p50_ms": (percentile(times(records), 50) * 1e3, n),
            "latency_p90_ms": (percentile(times(records), 90) * 1e3, n),
        }
    metrics = out[""]
    metrics["calibrated_time"] = (phase.calibrated_time, n)
    metrics["peak_rss_mb"] = (peak_rss_mb, 0 if peak_rss_mb is None else 1)
    metrics.update({RAW[k]: v for k, v in out["raw"].items()})
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 own_process: bool) -> dict:
    """One workload's result.  `own_process` says that no other workload ran
    before it in this process, so that the process's peak RSS is its own."""
    runner = Runner()
    setups = []
    cal_before = calibration_loop()
    for _ in range(SETUP_REPS):
        # import, generation and the warm-up instance, without the oracle
        # work of generation or the warm-up's check
        start = perf_counter()
        runner.import_invqm()
        inputs = workloads.build(name, seed, OUT / "inputs" / name)
        built = perf_counter() - start - inputs.oracle_s
        warm_up = runner.execute(inputs.mix[0])
        setup = Record("setup", built + warm_up.seconds, "ok")
        cal_after = calibration_loop()
        setup.cal = (cal_before + cal_after) / 2
        cal_before = cal_after
        setups.append(setup)
    if trace:
        untraced = runner.timed_phase(inputs.mix, seconds / 2, 1)
    else:
        untraced = runner.timed_phase(inputs.mix, seconds, MIN_INSTANCES)
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                   if own_process else None)
    traced, layer = None, {}
    if trace:
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
        try:
            traced = runner.timed_phase(inputs.mix, seconds / 2, 1)
            layer = runner.tracer.metrics(traced.passes)
            probes = [runner.execute(p) for p in inputs.probes]
        finally:
            runner.tracer.uninstall()
    else:
        probes = [runner.execute(p) for p in inputs.probes]

    records = untraced.records
    attempted = len(records) + len(probes)
    failed = untraced.failed + sum(p.status != "ok" for p in probes)
    result = {
        "workload": name,
        "why": workloads.WORKLOADS[name],
        "meta": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "time_limit_s": TIME_LIMIT_S,
            "setup_reps": SETUP_REPS,
            "mix_size": len(inputs.mix),
            "passes": untraced.passes,
            "instances": len(records),
            "probes": len(probes),
            "calibration_loop_s": statistics.median(r.cal for r in records),
            "calibration_reference_s": CAL_REF_S,
        },
        "end_to_end": end_to_end(untraced, setups, peak_rss_mb),
        "failed_ratio": (failed / attempted, attempted),
        "timed": {"attempted": len(records), "failed": untraced.failed},
        "setup_records": [r.to_json() for r in setups],
        "records": [r.to_json() for r in records],
        "probe_records": [p.to_json() for p in probes],
        "timeouts": runner.timeouts,
    }
    if traced is not None:
        layer["trace_overhead"] = (traced.calibrated_time
                                   / untraced.calibrated_time)
        for where, count in runner.timeouts.items():
            layer[f"{where}.timeouts"] = count
        result["per_layer"] = {k: layer.get(k, 0) for k in PER_LAYER}
        result["all_layer_metrics"] = layer
        result["traced"] = {"attempted": len(traced.records),
                            "failed": traced.failed, "passes": traced.passes,
                            "records": [r.to_json() for r in traced.records]}
        spans_path = OUT / f"spans_{name}_seed{seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["id", "parent", "instance", "name", "start", "end"],
            "spans": runner.tracer.spans, "dropped": runner.tracer.dropped}))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    return result


def print_table(result: dict) -> None:
    meta = result["meta"]
    print(f"workload {result['workload']}: {result['why']}")
    print(f"  seed {meta['seed']}, {meta['instances']} instances in "
          f"{meta['passes']} passes of {meta['mix_size']}, time limit "
          f"{meta['time_limit_s']} s, git {meta['git_sha'][:12]}, "
          f"python {meta['python']}, nproc {meta['nproc']}")
    metrics = result["end_to_end"]
    for name, unit in END_TO_END.items():
        value, n = metrics[name]
        if value is None:
            print(f"  {name:<18} {'-':>12} {unit:<5} (n=0: not this "
                  "workload's own; another workload ran first in this "
                  "process)")
            continue
        line = f"  {name:<18} {value:>12.4f} {unit:<5} (n={n})"
        if name in RAW:
            line += f"   {RAW[name]} {metrics[RAW[name]][0]:.4f}"
        print(line)
    ratio, n = result["failed_ratio"]
    print(f"  {'failed_ratio':<18} {ratio:>12.4f}       (n={n}: "
          f"{result['timed']['failed']} of {result['timed']['attempted']} "
          f"timed, {sum(p['status'] != 'ok' for p in result['probe_records'])}"
          f" of {meta['probes']} probes)")
    for rec in result["records"]:
        if rec["status"] != "ok":
            print(f"  FAILED {rec['status']}: {rec['label']}: {rec['detail']}")
    for rec in result["probe_records"]:
        print(f"  probe {rec['label']}: {rec['ms'] / 1e3:.2f} s, "
              f"{rec['status']}" + (f": {rec['detail']}" if rec["detail"]
                                    else ""))
    if "per_layer" in result:
        layer = result["per_layer"]
        selfs = sorted(((v, k) for k, v in result["all_layer_metrics"].items()
                        if k.endswith(".self_s") and k.count(".") == 2),
                       reverse=True)[:8]
        print(f"  trace_overhead {layer['trace_overhead']:.3f}; largest self "
              "time per pass: " + ", ".join(f"{k[:-7]} {v:.4f} s"
                                            for v, k in selfs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invqm" / "cli.py").is_file():
        print(f"bench: no invqm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for i, name in enumerate(names):
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              own_process=i == 0)
        suffix = f"seed{args.seed}_trace{args.trace}"
        (OUT / f"BENCH_{name}_{suffix}.json").write_text(
            json.dumps(result, indent=1))
        print_table(result)
        timed = result["timed"]
        summary["attempted"] += timed["attempted"]
        summary["failed"] += timed["failed"]
        if args.trace:
            summary["attempted"] += result["traced"]["attempted"]
            summary["failed"] += result["traced"]["failed"]
            metrics = {k: (v, PER_LAYER[k])
                       for k, v in result["per_layer"].items()}
        else:
            metrics = {k: (result["end_to_end"][k][0], u)
                       for k, u in END_TO_END.items()
                       if result["end_to_end"][k][0] is not None}
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
