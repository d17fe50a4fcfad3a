"""Aggregated per-model verification reports."""

import json
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import susyq.suites as suites_module
from susyq import models
from susyq.models import ModelError, ModelRecord
from susyq.numerics import Grid
from susyq.suites import suite_names, verify_model, verify_pair
from susyq.susy import apply_A, apply_B, intertwine_check


@pytest.fixture(scope="module")
def grid():
    return Grid()


@pytest.fixture(scope="module")
def suites(grid):
    return {name: verify_model(name, grid=grid) for name in suite_names()}


def test_every_registered_model_has_a_green_suite(suites):
    for name, suite in suites.items():
        failed = [c.check for c in suite.checks() if not c.passed]
        assert suite.all_pass(), f"{name}: {failed}"


def test_sections_cover_the_model_structure(suites):
    assert set(suites["harmonic"].sections) == {
        "factorization", "vacua", "eigenfunctions", "intertwining",
    }
    assert set(suites["pseudo-bosonic"].sections) == {
        "factorization", "vacua", "biorthogonality", "eigenfunctions",
        "intertwining", "identities",
    }
    assert set(suites["black-scholes"].sections) == {
        "factorization", "vacua", "assembly", "classification",
    }
    assert set(suites["deformed-harmonic"].sections) == {
        "factorization", "vacua", "deformation", "eigenfunctions",
        "intertwining", "superalgebra", "states",
    }


def test_swanson_suite_has_no_factorization_sections(suites):
    s = suites["swanson"]
    assert set(s.sections) == {"biorthogonality", "normalization", "hamiltonian"}
    assert any("rotated oscillator" in n for n in s.notes)


def test_payload_is_json_stable(grid):
    a = json.dumps(verify_model("harmonic", grid=grid).payload(), sort_keys=True)
    b = json.dumps(verify_model("harmonic", grid=grid).payload(), sort_keys=True)
    assert a == b
    decoded = json.loads(a)
    assert decoded["model"] == "harmonic"
    assert decoded["all_pass"] is True
    assert set(decoded["sections"]) == {
        "factorization", "vacua", "eigenfunctions", "intertwining",
    }
    for section in decoded["sections"].values():
        for c in section:
            assert set(c) == {"check", "residual", "tolerance", "passed"}


def test_unknown_model_lists_the_known_suites():
    with pytest.raises(ModelError, match="deformed-harmonic"):
        verify_model("no-such-model")


def test_perturbed_second_superpotential_is_detected(grid):
    s = verify_model("pseudo-bosonic", grid=grid, perturb_wb="0.05 * x")
    assert not s.all_pass()
    # the pair still factorizes its own Hamiltonians; the model's
    # eigenfamilies are what no longer fit
    assert all(c.passed for c in s.sections["factorization"])
    assert any(not c.passed for c in s.sections["eigenfunctions"])
    assert any(not c.passed for c in s.sections["intertwining"])
    assert any("perturbed" in n for n in s.notes)


def test_every_pair_model_notices_a_perturbed_second_superpotential(grid):
    for name in ("black-scholes", "deformed-harmonic", "harmonic", "pseudo-bosonic"):
        s = verify_model(name, grid=grid, perturb_wb="0.05 * x")
        assert not s.all_pass(), name
        # the perturbed pair keeps the model's singular points, so it still
        # factorizes its own Hamiltonians, black-scholes' pole included
        assert all(c.passed for c in s.sections["factorization"]), name
        assert s.notes[-1] == "second superpotential perturbed by 0.05 * x"


def test_perturbed_pair_reaches_the_deformed_eigen_residuals(grid):
    s = verify_model("deformed-harmonic", grid=grid, perturb_wb="0.05 * x")
    assert [c.check for c in s.sections["eigenfunctions"] if not c.passed] == [
        f"{family}: eigen-residuals" for family in
        ("h1 on phi1", "h1 adjoint on psi1", "h2 on phi2", "h2 adjoint on psi2")]


def test_deformed_harmonic_runs_to_verdicts_on_a_coarse_grid():
    s = verify_model("deformed-harmonic", grid=Grid(12.0, 1025))
    assert "suite" not in s.sections
    assert len(list(s.checks())) == 114


def _count_families(monkeypatch):
    """Record each call, as (generator, level), to the four family
    generators of each record the suites build and to the base
    eigenfunctions a deformed record's families are formed from, wrapping
    them as they leave ``get_model``."""
    calls = []

    def counted(attr, fn):
        def gen(n, grid):
            calls.append((attr, n))
            return fn(n, grid)
        return gen

    build = suites_module.get_model

    def get_model(name, **params):
        m = build(name, **params)
        for attr in ("phi1", "psi1", "phi2", "psi2"):
            if getattr(m, attr) is not None:
                setattr(m, attr, counted(attr, getattr(m, attr)))
        if "base_eigenfunction" in m.extras:
            m.extras["base_eigenfunction"] = counted("base", m.extras["base_eigenfunction"])
        return m

    monkeypatch.setattr(suites_module, "get_model", get_model)
    return calls


@pytest.mark.parametrize("name, n_calls", [("harmonic", 9), ("pseudo-bosonic", 22),
                                           ("deformed-harmonic", 52)])
def test_suite_builds_each_family_level_once(grid, monkeypatch, name, n_calls):
    calls = _count_families(monkeypatch)
    assert verify_model(name, grid=grid).all_pass()
    # no level's recurrence runs twice
    assert len(calls) == len(set(calls)) == n_calls
    if name == "deformed-harmonic":
        # duals 0-8 are formed from e_0..e_8, which the eigen-residuals read too
        assert sorted(calls) == sorted([("base", n) for n in range(9)]
                                       + [("phi1", n) for n in range(26)]
                                       + [("psi1", n) for n in range(9, 26)])


@pytest.mark.parametrize("n_points", [4097, 65537])
def test_deformed_duals_are_the_inverse_dual_times_the_base_levels(n_points):
    # the suite forms duals 0-8 from the base levels, into a buffer of its
    # own; both routes must keep the bits of the record's own generator
    grid = Grid(12.0, n_points)
    m = models.get_model("deformed-harmonic")
    inverse_dual = m.extras["deformation"].inverse_dual_values(grid)
    buffer = np.empty(n_points, dtype=np.complex128)
    for n in range(9):
        want = m.psi1(n, grid).values
        e_n = m.extras["base_eigenfunction"](n, grid).values
        assert (inverse_dual * e_n).tobytes() == want.tobytes()
        assert np.multiply(inverse_dual, e_n, out=buffer).tobytes() == want.tobytes()


# The deformed-harmonic level walk at its widest, in complex N-point arrays:
#    9  pair samples (w_a, w_b, their slopes, q1, v1, v2 and both duals)
#    2  deformation multipliers e^q and e^{-conj q}
#  4.5  the real factors e_0..e_8 of duals 0-8, which the pairing matrix pairs
#       with every level; the duals are formed one at a time after the
#       superalgebra vector, in a buffer dropped with the level
#    2  the phi state sum and phi_0, which the psi walk's overlaps read
#    2  phi_n and phi_{n-1}
#    6  A, H1, B and H2 of phi_n; B and H2 of phi_{n-1}
#    3  real arrays at half size: x, Simpson weights, the samples of the base
#       superpotential, the Hermite ladder's two levels and its envelope
#  4.5  one superalgebra vector's own work: two of its second-level images at
#       a time, and the norm rows and pass buffers
#   -- 33.5 arrays (33.7 measured), and 40 leaves 19% of headroom.  Holding
#   duals 0-8 whole and every superalgebra image at once measured 40.6;
#   holding levels 0-10 of both families through every section needs 72.
@pytest.mark.parametrize("name, limit", [("deformed-harmonic", 40), ("pseudo-bosonic", 50)])
def test_suite_peak_memory_in_grid_arrays(name, limit):
    grid = Grid(12.0, 16385)
    verify_model(name, grid=Grid(12.0, 1025))  # one-time set-up stays out of the count
    tracemalloc.start()
    try:
        assert verify_model(name, grid=grid).all_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in complex N-point arrays; a scale triple per pseudo-bosonic level (76)
    # breaks the pseudo-bosonic bound
    assert peak / (16 * grid.n_points) <= limit


def test_deformed_harmonic_forms_each_operator_image_once(grid, stencil_passes):
    assert verify_model("deformed-harmonic", grid=grid).all_pass()
    # 145 distinct images, counted by content hash, of 91 distinct inputs:
    # one pass per input forms all of its images
    assert stencil_passes["images"] == 145
    assert stencil_passes["passes"] <= 91


@pytest.mark.parametrize("name, passes", [("harmonic", 16), ("pseudo-bosonic", 25)])
def test_ladder_suites_take_one_pass_per_level_carrier(grid, stencil_passes, name, passes):
    assert verify_model(name, grid=grid).all_pass()
    # 7 for the pair sections (3 factorization, 4 vacua) and one per level of
    # the nine-level walk; a scaled pseudo-bosonic level takes two, H1 on its
    # carrier and A and B on its materialized values
    assert stencil_passes["passes"] == passes


@pytest.mark.parametrize("name", ["harmonic", "pseudo-bosonic"])
def test_ladder_walk_records_are_those_of_intertwine_check(grid, suites, name):
    m = models.get_model(name)
    phis = [m.phi1(n, grid) for n in range(9)]
    # the oracle: each level materialized and each image from a pass of its own
    flat = [f.materialize() for f in phis]
    want = [intertwine_check(n, m.energy(n), flat[n], flat[n - 1] if n else None,
                             apply_A(m.pair, flat[n]), apply_B(m.pair, flat[n - 1]) if n else None,
                             m.pair.singular_points) for n in range(9)]
    got = [lv.rec for lv in suites_module._ladder_walk(m.pair, m.energy, phis.__getitem__, 9)]
    # repr keeps every bit of a float, the sign of a zero included
    assert [repr(astuple(r)) for r in got] == [repr(astuple(r)) for r in want]
    assert suites[name].sections["intertwining"] == [
        suites_module._intertwine_result(r) for r in want]


def test_deformed_harmonic_suite_builds_its_pair_once(grid, monkeypatch):
    calls = []
    build = models.deformed_pair
    monkeypatch.setattr(models, "deformed_pair", lambda d: calls.append(d) or build(d))
    assert verify_model("deformed-harmonic", grid=grid).all_pass()
    assert len(calls) == 1


def _count_record_vacua(monkeypatch):
    calls = []
    record_vacua = ModelRecord.vacua

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return record_vacua(self, *args, **kwargs)

    monkeypatch.setattr(ModelRecord, "vacua", counted)
    return calls


@pytest.mark.parametrize("perturb_wb", [None, "0.05 * x"])
def test_black_scholes_suite_computes_the_record_vacua_once(grid, suites, monkeypatch,
                                                            perturb_wb):
    calls = _count_record_vacua(monkeypatch)
    s = verify_model("black-scholes", grid=grid, perturb_wb=perturb_wb)
    # the vacua section and the classification share them; a perturbed pair
    # checks its own vacua, and the classification still reads the record's
    assert calls == ["black-scholes"]
    classification = s.sections["classification"]
    assert classification == suites["black-scholes"].sections["classification"]
    assert all(c.passed for c in classification)


def test_perturbation_needs_a_pair(grid):
    with pytest.raises(ModelError, match="swanson"):
        verify_model("swanson", grid=grid, perturb_wb="0.05 * x")


def test_user_pair_suite_runs_core_and_vacua(grid):
    s = verify_pair("tanh(x) + 0.2", "x / (1 + x^2) + c", {"c": 0.1}, grid=grid)
    assert s.all_pass()
    assert set(s.sections) == {"factorization", "vacua"}
    assert s.params["wA"] == "tanh(x) + 0.2"
    assert s.params["c"] == 0.1
