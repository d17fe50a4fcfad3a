"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

NPROC = run.cap_threads()
sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in SPEC[key]:
            assert set(m) == fields
            assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
            assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def test_same_seed_gives_the_same_op_list():
    for name in workloads.WORKLOADS:
        assert workloads.op_list(name, 7) == workloads.op_list(name, 7)
        assert workloads.op_list(name, 7) != workloads.op_list(name, 8)
        assert {op["n"] for op in workloads.warmup_ops(workloads.op_list(name, 7))} == {
            workloads.WARMUP_N}


def test_wrapper_list_resolves_against_the_package():
    import susyq.cli
    import susyq.susy

    t = tracer.Tracer()
    t.install()
    try:
        # bound under other names in other modules, all wrapped
        assert getattr(susyq.susy.inner, "__wrapped_by_tracer__", False)
        assert getattr(susyq.cli.pair_vacua, "__wrapped_by_tracer__", False)
        assert getattr(susyq.inner, "__wrapped_by_tracer__", False)
        grid = susyq.Grid(12.0, 257)
        f = susyq.ScaledGridFunction(grid, grid.x * 0 + 1, grid.x * 0)
        susyq.norm(f)  # a scaled norm goes through inner
    finally:
        t.uninstall()
    assert not hasattr(susyq.susy.inner, "__wrapped_by_tracer__")
    names = [s[0] for s in t.spans]
    assert names.count("numerics.carriers") == 1 and "numerics.inner" in names
    assert t.spans[names.index("numerics.inner")][3] == names.index("numerics.norm")


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracer, "FUNCTIONS",
                        tracer.FUNCTIONS + [("numerics", "no_such_kernel", "numerics.x")])
    t = tracer.Tracer()
    with pytest.raises(tracer.TracerError, match="no_such_kernel"):
        t.install()
    import susyq

    assert not hasattr(susyq.inner, "__wrapped_by_tracer__")


def test_known_defect_covers_only_the_listed_checks():
    assert checks.known_defect("deformed-harmonic", 262145,
                               ["h2 on phi2: eigen-residuals",
                                "commutator [H,Q_B] = 0 (vector 3)"])
    assert not checks.known_defect("deformed-harmonic", 65537,
                                   ["h2 on phi2: eigen-residuals"])
    assert not checks.known_defect("deformed-harmonic", 262145,
                                   ["level 0 eigen-residual"])


def _tiny(name):
    """The two ops of the seeded list with the smallest grids."""
    return sorted(workloads.op_list(name, 0), key=lambda op: op["n"])[:2]


def test_each_op_is_scaled_by_the_kernel_around_it(tmp_path, monkeypatch):
    kernel_times = iter([(0.01, 0.02), (0.03, 0.02), (0.05, 0.06)])
    monkeypatch.setattr(run.hostspeed, "calibrate", lambda: next(kernel_times))
    bench = run.Bench(_tiny("states"), str(tmp_path), None)
    try:
        samples, passes = bench.measure(0, "measure", whole_passes=True)
    finally:
        bench.close()
    ref = run.hostspeed.REFERENCE_S
    assert passes == 1 and samples["calibration_s"] == [0.01, 0.03, 0.05]
    assert samples["lat_ref"][0] == [samples["lat"][0][0] * ref / 0.02]
    assert samples["lat_ref"][1] == [samples["lat"][1][0] * ref / 0.04]
    assert samples["cpu_ref"][1] == [samples["cpu"][1][0] * ref / 0.04]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(name, trace):
    result = run.run(name, 0, 0, bool(trace), NPROC, ops=_tiny(name))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
