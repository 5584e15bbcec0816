"""Output parsing and the metric lists declared in BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import layers
import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    driven = [w["name"] for w in SPEC["workloads"]]
    assert driven == [w for w in run.WORKLOADS if w in driven]
    assert set(run.WORKLOADS) - set(driven) == {"domain-sweep"}


def test_strict_json_rejects_nan_and_infinity():
    good = '{"columns": ["a"], "rows": [[1.5]]}'
    assert workloads.parse_table(good, "json") == (["a"], [[1.5]])
    for bad in ('{"columns": ["a"], "rows": [[NaN]]}', '{"meta": {"w": Infinity}, "columns": [], "rows": []}'):
        with pytest.raises(workloads.BadOutput):
            workloads.parse_table(bad, "json")


def test_csv_skips_metadata_and_converts_numbers():
    text = "# goaltime\n# config: {}\nestimator,pe_truncated,pe_raw\nq0,0.5,0.25\n"
    assert workloads.parse_table(text, "csv") == (
        ["estimator", "pe_truncated", "pe_raw"], [["q0", 0.5, 0.25]])
    with pytest.raises(workloads.BadOutput):
        workloads.parse_table("y,q0\n1,2,3\n", "csv")


def test_value_checks_reject_wrong_numbers():
    workloads.check_table("summarize", workloads._CLI_COLUMNS["summarize"],
                          [["q0", 18.0, 28.0, 14.0, 26.0, 50.0]])
    with pytest.raises(workloads.WrongValue):
        workloads.check_table("summarize", workloads._CLI_COLUMNS["summarize"],
                              [["q0", 18.0, 28.0, 30.0, 26.0, 50.0]])
    with pytest.raises(workloads.WrongValue):
        workloads.check_table("predict", ["y", "q0", "q1"], [[1.0, -0.1, 0.2]])
    with pytest.raises(workloads.WrongValue):
        workloads.check_table("risk-curve", workloads._CLI_COLUMNS["risk-curve"],
                              [[1.0, 0.3, float("nan"), 0.3, 0.01]])


def test_scipy_self_time_parser():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |     numpy.core\n"
            "import time:      2000 |       2500 |   scipy.special\n"
            "import time:       500 |        500 |     scipy._lib\n")
    assert layers._scipy_self_ms(text) == 2.5


def test_every_workload_has_a_reference_with_a_nominal_time():
    import reference

    for wl in workloads.WORKLOADS.values():
        assert wl.reference in reference.NOMINAL_S
        assert getattr(reference, wl.reference)() > 0


def test_cli_mix_leaves_known_defects_to_the_untimed_probe(tmp_path):
    ops = workloads.cli_ops(3, tmp_path)
    mix = {(op.subcommand, op.fmt) for op in ops}
    assert not mix & set(workloads.KNOWN_DEFECTS)
    assert {op.subcommand for op in ops} == set(workloads.CLI_SUBCOMMANDS)
    assert {fmt for _, fmt in mix} == {"csv", "json"}
