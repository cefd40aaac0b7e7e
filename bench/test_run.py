"""The runner's time limit and tracer, and BENCHMARK.json against run.py.

    python3 -m pytest bench/
"""

import json
import random
import signal
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def runner():
    r = run.Runner()
    r.import_invqm()
    yield r
    if r.tracer is not None:
        r.tracer.uninstall()
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def snf_probe(tmp_path):
    rng = random.Random(0)
    n, m, length = workloads.SNF_PROBE_RUNG
    rels = [workloads.random_word(rng, n, length) for _ in range(m)]
    path = tmp_path / "probe.grp"
    workloads.write_presentation(path, n, rels)
    return workloads.Instance("probe", ["analyze", str(path), "--json"],
                              workloads.analyze_check(n, rels))


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_time_limit_names_the_open_function(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TIME_LIMIT_S", 0.2)
    record = runner.execute(snf_probe(tmp_path))
    assert record.status == "timeout"
    assert record.detail.split(".")[0] in tracer.LAYERS
    assert runner.timeouts == {record.detail: 1}


def test_tracer_wraps_every_import_site(runner, tmp_path, monkeypatch):
    linalg = sys.modules["invqm.linalg"]
    invhoms = sys.modules["invqm.invhoms"]
    original = linalg.rref
    runner.tracer = tracer.Tracer()
    runner.tracer.install()
    assert linalg.rref is invhoms.rref is not original
    inst = next(i for i in workloads.build("presentations", 1,
                                           tmp_path).mix
                if i.label.startswith("invhoms"))
    assert runner.execute(inst).status == "ok"
    metrics = runner.tracer.metrics(1)
    assert metrics["linalg.rref.calls"] > 0
    assert metrics["invhoms.constraint_rows"] > 0
    assert metrics["cli.main.calls"] == 1
    assert 0 <= metrics["cli.main.self_s"] <= metrics["cli.main.s"]
    monkeypatch.setattr(run, "TIME_LIMIT_S", 0.2)
    record = runner.execute(snf_probe(tmp_path))
    assert record.status == "timeout"
    assert runner.tracer.stack == []
    runner.tracer.uninstall()
    assert linalg.rref is invhoms.rref is original


def test_build_times_its_oracle_work_apart(tmp_path):
    """The little-mode homog filter runs the oracle while inputs are built;
    set-up time leaves that out."""
    inputs = workloads.build("words_qm", 1, tmp_path)
    assert inputs.oracle_s > 0
    assert workloads.build("monodromy", 1, tmp_path).oracle_s == 0
