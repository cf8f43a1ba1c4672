"""Smoke test of the end-to-end benchmark (run explicitly, not tier 1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q -o addopts=""

Two timed laps per workload keep it near a minute.
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent
ROOT = E2E.parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics that may be null, and on which workloads: a p99
#: needs 1000 operations, which only serving has.
NULL_ALLOWED = {"serving.sim_latency_p99_s"}


def _load_run():
    spec = importlib.util.spec_from_file_location("e2e_run", E2E / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.fixture(scope="module")
def result_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--laps", "2", "--trace", "1",
         "--out", str(out)],
        check=True, cwd=ROOT,
    )
    return out


def test_every_manifest_name_is_reported(result_file):
    workloads = json.loads(result_file.read_text())["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in MANIFEST["workloads"])
    for name, result in workloads.items():
        assert result["failures"] == [], name
        assert result["laps"] == 2
        assert result["missing"] == [], name
        for spec in MANIFEST["end_to_end"]:
            assert result["end_to_end"][spec["name"]]["value"] > 0, (name, spec)
        for spec in MANIFEST["per_layer"]:
            value = result["per_layer"][spec["name"]]
            if value is None:
                assert spec["name"] in NULL_ALLOWED and name != "serve_chaos"
        assert result["per_layer"]["sim_layer_residual"] < 0.01
        buckets = sum(
            v for k, v in result["per_layer"].items() if k.startswith("host_self_s.")
        )
        assert buckets == pytest.approx(result["per_layer"]["host_traced_s"])
        for kind in ("spans", "trace", "profile"):
            assert (E2E / "artifacts" / f"{name}.{kind}.json").exists()


def test_manifest_lists_the_ledger():
    sys.path[:0] = [str(ROOT / "src"), str(E2E)]
    import layers

    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.PER_LAYER
    ]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in [m["name"] for m in MANIFEST["end_to_end"]]


def _compare(base, changed, tmp_path):
    paths = []
    for label, document in (("a", base), ("b", changed)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(document))
    return run.main(["compare", str(paths[0]), str(paths[1])])


def test_compare(result_file, tmp_path):
    base = json.loads(result_file.read_text())
    assert _compare(base, base, tmp_path) == 0

    bound = next(
        m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "host_ops_per_s"
    )
    slower = copy.deepcopy(base)
    metric = slower["workloads"]["shield_write"]["end_to_end"]["host_ops_per_s"]
    for key in ("value", "q1", "q3"):
        metric[key] *= 1.0 - bound - 0.05
    assert _compare(base, slower, tmp_path) == 1

    nudged = copy.deepcopy(base)
    nudged["workloads"]["infer_epc"]["end_to_end"]["sim_latency_p50_s"]["value"] *= 1.01
    assert _compare(base, nudged, tmp_path) == 1

    failing = copy.deepcopy(base)
    failing["workloads"]["serve_chaos"]["failed"] += 1
    assert _compare(base, failing, tmp_path) == 1


def test_a_wrong_expected_label_fails_the_run(monkeypatch, capsys):
    sys.path[:0] = [str(ROOT / "src"), str(E2E)]
    import workloads

    monkeypatch.setattr(
        workloads.InferEpc, "expected_label", lambda self, runner, image: -1
    )
    assert run.main(["--workload", "infer_epc", "--laps", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
