"""Output checks for benchmark ops, run outside the timed span.

Every check returns a list of problems; an empty list means the op's output
is correct.  Tables are compared cell by cell, bit for bit, with the values
the library computes for the same grid; headers follow docs/file-formats.md.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re

import numpy as np

import susyq
from workloads import GRID_L

POTENTIALS_HEADER = ["x", "q1", "v1", "v2", "v1_dual", "v2_dual", "annotation"]
VACUA_HEADER = ["x"] + [f"{label}_{part}"
                        for label in ("phi0_1", "phi0_2", "psi0_1", "psi0_2")
                        for part in ("logabs", "phase")]
KCURVE_HEADER = ["J", "K"]
RESOLUTION_HEADER = ["stage", "gamma_limit", "j_max", "n_trunc",
                     "value_re", "value_im", "abs_error", "rel_error"]
BS_HEADER = ["r", "phi0_1", "phi0_2", "psi0_1", "psi0_2", "numeric_agrees"]

# number of checks each suite reports at the parent commit
CHECK_COUNTS = {
    "black-scholes": 12,
    "deformed-harmonic": 114,
    "harmonic": 25,
    "pseudo-bosonic": 31,
    "swanson": 12,
    "user-pair": 7,
}

# Known defect, kept visible: on large grids the deformed-harmonic suite
# fails the sector-2 eigen-residuals and the [H,Q] commutators (2 checks at
# N = 131073, 16 at N = 262145; the residual grows with N).  Such an op is
# logged as a failed verdict and lowers pass_frac; it is not an op failure
# as long as no other check fails.
KNOWN_DEFECTS = [
    {
        "suite": "deformed-harmonic",
        "min_n": 131073,
        "checks": re.compile(r"h2 (adjoint )?on (phi2|psi2): eigen-residuals"
                             r"|commutator \[H,Q_[AB]\] = 0 \(vector \d+\)"),
    },
]

# suite tolerances for the state pair norm (see the deformed-harmonic suite)
PAIR_NORM_TOL = {"coefficients": 1e-12, "grid": 1e-7}
ACTION_TOL = 1e-8


def known_defect(suite: str, n: int, failing: list) -> bool:
    """True when every failing check is explained by a known defect."""
    for d in KNOWN_DEFECTS:
        if d["suite"] == suite and n >= d["min_n"] and failing:
            if all(d["checks"].fullmatch(name) for name in failing):
                return True
    return False


def digests(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def grid_of(op) -> "susyq.Grid":
    return susyq.Grid(GRID_L, op["n"])


def build_source(src: dict):
    """(model record or None, pair) for an op source."""
    if "model" in src:
        m = susyq.get_model(src["model"], **src["bind"])
        return m, m.pair
    pair = susyq.build_pair(susyq.parse(src["wA"], src["bind"]),
                            susyq.parse(src["wB"], src["bind"]))
    return None, pair


# ---------------------------------------------------------------------------
# tables

def read_table(path: str):
    """(header, rows) of a CSV table or of a JSON list of row objects.

    CSV rows are lists of strings; JSON rows are dicts.  JSON objects carry
    sorted keys, so their header is the key set of the first row.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        return (rows[0] if rows else []), rows[1:]
    rows = json.loads(text)
    return (list(rows[0]) if rows else []), rows


def _column(header, rows, name):
    if rows and isinstance(rows[0], dict):
        return [row[name] for row in rows]
    j = header.index(name)
    return [row[j] for row in rows]


def _as_float(cells) -> np.ndarray:
    # json writes non-finite numbers as "inf", "-inf" and "nan" strings
    return np.fromiter((float(c) for c in cells), dtype=np.float64, count=len(cells))


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    want = np.ascontiguousarray(want, dtype=np.float64)
    same = got.view(np.uint64) == want.view(np.uint64)
    return bool(np.all(same | (np.isnan(got) & np.isnan(want))))


def _table_problems(path, header_want, n_rows) -> tuple:
    header, rows = read_table(path)
    problems = []
    if path.endswith(".csv"):
        if header != header_want:
            problems.append(f"{os.path.basename(path)}: header {header} != {header_want}")
        if any(len(row) != len(header_want) for row in rows):
            problems.append(f"{os.path.basename(path)}: ragged rows")
    elif rows and any(sorted(row) != sorted(header_want) for row in rows):
        problems.append(f"{os.path.basename(path)}: row keys differ from {header_want}")
    if n_rows is not None and len(rows) != n_rows:
        problems.append(f"{os.path.basename(path)}: {len(rows)} rows, expected {n_rows}")
    return header_want, rows, problems


def _compare_columns(path, header, rows, expected: dict) -> list:
    problems = []
    for name, want in expected.items():
        got = _as_float(_column(header, rows, name))
        if not _same_bits(got, want):
            bad = int(np.argmax(got.view(np.uint64) != np.asarray(want, float).view(np.uint64)))
            problems.append(f"{os.path.basename(path)}: column {name} differs from the "
                            f"library value at row {bad}")
    return problems


def check_potentials(op, outdir) -> tuple:
    grid = grid_of(op)
    path = os.path.join(outdir, f"potentials.{op['fmt']}")
    header, rows, problems = _table_problems(path, POTENTIALS_HEADER, grid.n_points)
    if problems:
        return problems, len(rows)
    _, pair = build_source(op["source"])
    s = pair.samples(grid)
    expected = {"x": grid.x}
    for name in POTENTIALS_HEADER[1:-1]:
        if np.any(s[name].imag != 0.0):
            return [f"{name} is complex; the real-valued header does not apply"], len(rows)
        expected[name] = s[name].real
    problems += _compare_columns(path, header, rows, expected)
    annotations = [""] * grid.n_points
    for x0 in pair.singular_points:
        j = int(np.argmin(np.abs(grid.x - x0)))
        tag = f"pole x0={float(x0):.17g}"
        annotations[j] = f"{annotations[j]};{tag}" if annotations[j] else tag
    if _column(header, rows, "annotation") != annotations:
        problems.append("annotation column differs from the declared singular points")
    with open(os.path.join(outdir, "potentials-meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if (meta.get("columns") != POTENTIALS_HEADER
            or meta.get("grid") != {"L": GRID_L, "N": grid.n_points}):
        problems.append("potentials-meta.json does not describe the table")
    return problems, len(rows)


def check_vacua(op, outdir) -> tuple:
    grid = grid_of(op)
    path = os.path.join(outdir, f"vacua.{op['fmt']}")
    header, rows, problems = _table_problems(path, VACUA_HEADER, grid.n_points)
    if problems:
        return problems, len(rows)
    m, pair = build_source(op["source"])
    v = m.vacua(grid) if m is not None else susyq.vacua(pair, grid)
    expected = {"x": grid.x}
    for rec in v.records():
        f = susyq.as_scaled(rec.function)
        expected[f"{rec.label}_logabs"] = f.log_magnitude()
        expected[f"{rec.label}_phase"] = np.angle(f.values)
    problems += _compare_columns(path, header, rows, expected)
    with open(os.path.join(outdir, "vacua-report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if [r["label"] for r in report.get("records", [])] != ["phi0_1", "phi0_2", "psi0_1", "psi0_2"]:
        problems.append("vacua-report.json does not hold the four vacuum records")
    return problems, len(rows)


def _flag(cell) -> bool:
    return cell is True or cell == "true"


def check_bs_classify(op, outdir) -> tuple:
    arg = next(a for a in op["argv"] if a.startswith("--r-values="))
    rates = [float(t) for t in arg.split("=", 1)[1].split(",")]
    path = os.path.join(outdir, f"bs-classification.{op['fmt']}")
    header, rows, problems = _table_problems(path, BS_HEADER, len(rates))
    if problems:
        return problems, len(rows)
    got_r = _as_float(_column(header, rows, "r"))
    if not _same_bits(got_r, np.array(rates)):
        problems.append("rate column differs from --r-values")
    for i, r in enumerate(rates):
        want = susyq.bs_classification(r).flags()
        got = tuple(_flag(_column(header, rows, name)[i]) for name in BS_HEADER[1:5])
        if got != want:
            problems.append(f"r={r}: flags {got} != case table {want}")
        if not _flag(_column(header, rows, "numeric_agrees")[i]):
            problems.append(f"r={r}: fitted exponents disagree with the case table")
    return problems, len(rows)


def check_gk(op, outdir) -> tuple:
    argv = op["argv"]
    j = float(argv[argv.index("--j") + 1])
    problems = []
    with open(os.path.join(outdir, "gk-state.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    values = report["values"]
    for route, tol in PAIR_NORM_TOL.items():
        re_, im = values[f"pair_norm_{route}"]
        if not abs(complex(re_, im) - 1.0) <= tol:
            problems.append(f"pair norm ({route} route) {re_}+{im}i is not within {tol} of 1")
    if report["state"]["J"] != j:
        problems.append(f"state J {report['state']['J']} != requested {j}")
    if values["action_identity"] is None:
        # needs E_0 = 0, which the swanson spectrum does not have
        if op["source"]["model"] != "swanson" or not values["action_note"]:
            problems.append("action identity missing without a reason")
    elif not abs(complex(*values["action_identity"]) - j) <= ACTION_TOL:
        problems.append(f"action identity {values['action_identity']} not within "
                        f"{ACTION_TOL} of J={j}")
    _, k_rows, p = _table_problems(os.path.join(outdir, "gk-kcurve.csv"), KCURVE_HEADER,
                                   None if report["k_curve"]["note"] else 101)
    problems += p
    _, r_rows, p = _table_problems(os.path.join(outdir, "gk-resolution.csv"),
                                   RESOLUTION_HEADER, None)
    problems += p
    return problems, len(k_rows) + len(r_rows)


def check_verify_cli(op, outdir) -> tuple:
    with open(os.path.join(outdir, "verify.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    checks = [c for section in payload["sections"].values() for c in section]
    problems = []
    if payload["all_pass"]:
        problems.append("perturbed suite passed; the negative test did not fail")
    if len(checks) != CHECK_COUNTS[op["suite"]]:
        problems.append(f"{len(checks)} checks, expected {CHECK_COUNTS[op['suite']]}")
    return problems, 0


FILE_CHECKS = {
    "potentials": check_potentials,
    "vacua": check_vacua,
    "bs-classify": check_bs_classify,
    "gk": check_gk,
    "verify": check_verify_cli,
}


def suite_verdict(op, suite) -> dict:
    """Verdict record of a verify_model/verify_pair result."""
    checks = list(suite.checks())
    failing = [c.check for c in checks if not c.passed]
    problems = []
    if len(checks) != CHECK_COUNTS[op["suite"]]:
        problems.append(f"{len(checks)} checks, expected {CHECK_COUNTS[op['suite']]}")
    defect = False
    if failing and op["expect_pass"]:
        defect = known_defect(op["suite"], op["n"], failing)
        if not defect:
            problems.append(f"unexpected failing checks: {failing}")
    if not failing and not op["expect_pass"]:
        problems.append("negative test passed")
    return {"verdict": "pass" if not failing else "fail", "failing_checks": failing,
            "known_defect": defect, "problems": problems, "n_checks": len(checks)}
