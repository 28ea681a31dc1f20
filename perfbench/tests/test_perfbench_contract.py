import json
from pathlib import Path

import run
from layers import PER_LAYER, TARGETS
from workloads import END_TO_END, WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_runs_report():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, *_rest) in PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_traced_target_exists_in_the_program():
    from spans import Patches, Tracer
    patches = Patches(Tracer(), TARGETS)
    with patches.installed():
        pass
    assert patches.unmeasured == {}


def test_refuses_to_run_without_a_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "train", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
