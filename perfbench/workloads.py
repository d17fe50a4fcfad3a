"""Seeded operation lists for the three benchmark workloads.

Standard library only: the set-up probe imports this module before it starts
timing ``import susyq``.

An op is a plain dict. ``kind`` is ``"cli"`` (``argv`` goes to
``susyq.cli.main``), ``"verify_model"`` or ``"verify_pair"`` (keyword
arguments for the library call).  ``n`` is the grid size and ``check`` names
the output check in ``checks.py``.  Every op list has a fixed structure, so
the cost of a pass does not depend on the seed: the seed draws only the
numeric parameters and the expression coefficients.
"""

from __future__ import annotations

import json
import random

GRID_L = 12.0
WARMUP_N = 4097

# verify covers every registered suite at every rung of this ladder
VERIFY_SUITES = ("black-scholes", "deformed-harmonic", "harmonic", "pseudo-bosonic", "swanson")
VERIFY_RUNGS = (4097, 16385, 65537, 262145)
STATE_MODELS = ("deformed-harmonic", "harmonic", "swanson")

WORKLOADS = ("tables", "verify", "states")


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _rate(rng: random.Random, lo: float = -1.0, hi: float = 2.0) -> float:
    """Black-Scholes rate away from 0, where the pole sits on the x = 0 node
    and the fitted decay exponents cannot resolve the classification."""
    while True:
        r = _coef(rng, lo, hi)
        if abs(r) >= 0.25:
            return r


def _user_pair(rng: random.Random, shape_a: str, with_c: bool) -> dict:
    bind = {"a": _coef(rng, -0.9, 0.9)}
    w_b = "x"
    if with_c:
        bind["c"] = _coef(rng, -0.9, 0.9)
        w_b = "x + c*tanh(x)"
    return {"wA": f"x + a*{shape_a}(x)", "wB": w_b, "bind": bind}


def _source_argv(src: dict) -> list:
    if "model" in src:
        argv = ["--model", src["model"]]
    else:
        argv = ["--wA", src["wA"], "--wB", src["wB"]]
    for name, value in src["bind"].items():
        argv += ["--bind", f"{name}={value!r}"]
    return argv


def _cli(command: str, n: int, extra: list, check: str, expect_exit: int = 0, **info) -> dict:
    argv = [command, *extra, "--grid-l", repr(GRID_L), "--grid-n", str(n)]
    return {"kind": "cli", "argv": argv, "n": n, "check": check,
            "expect_exit": expect_exit, **info}


def tables_ops(rng: random.Random) -> list:
    """potentials and vacua through the CLI; csv and json alternate."""
    bs = {"model": "black-scholes", "bind": {"r": _coef(rng, 0.5, 2.0)}}
    pb = {"model": "pseudo-bosonic", "bind": {"k": _coef(rng, -2.0, -0.5)}}
    user_tanh = _user_pair(rng, "tanh", with_c=False)
    user_sin = _user_pair(rng, "sin", with_c=True)
    plan = [
        ("potentials", bs, 65537, "csv"),
        ("vacua", bs, 65537, "json"),
        ("potentials", pb, 65537, "json"),
        ("vacua", pb, 65537, "csv"),
        ("potentials", user_tanh, 65537, "csv"),
        ("vacua", user_sin, 65537, "json"),
        ("potentials", bs, 262145, "csv"),
    ]
    return [
        _cli(cmd, n, _source_argv(src) + ["--format", fmt], check=cmd, source=src, fmt=fmt)
        for cmd, src, n, fmt in plan
    ]


def verify_ops(rng: random.Random) -> list:
    """A grid-refinement sweep of every suite, user pairs, negative ops and
    the numeric rate classification."""
    params = {
        "black-scholes": {"r": _rate(rng)},
        "deformed-harmonic": {},
        "harmonic": {},
        "pseudo-bosonic": {"k": _coef(rng, -2.0, -0.5)},
        "swanson": {"theta": _coef(rng, 0.2, 0.6)},
    }
    pair = _user_pair(rng, rng.choice(("tanh", "sin")), with_c=True)
    ops = []
    for n in VERIFY_RUNGS:
        for suite in VERIFY_SUITES:
            ops.append({"kind": "verify_model", "n": n, "check": "suite", "suite": suite,
                        "source": {"model": suite, "bind": params[suite]},
                        "expect_pass": True})
        ops.append({"kind": "verify_pair", "n": n, "check": "suite", "suite": "user-pair",
                    "source": pair, "expect_pass": True})
    # a perturbed second superpotential must fail its verdict (exit 1)
    for n in VERIFY_RUNGS[:2]:
        pb = {"model": "pseudo-bosonic", "bind": {"k": _coef(rng, -2.0, -0.5)}}
        eps = _coef(rng, 0.02, 0.1)
        perturb = f"{eps!r}*{rng.choice(('x', 'tanh(x)'))}"
        ops.append(_cli("verify", n, _source_argv(pb) + ["--perturb-wb", perturb],
                        check="verify", expect_exit=1, suite="pseudo-bosonic", source=pb))
    for n, fmt in ((4097, "csv"), (16385, "json")):
        rates = ",".join(repr(_rate(rng)) for _ in range(6))
        # "=" keeps argparse from reading a leading minus sign as an option
        ops.append(_cli("bs-classify", n, ["--numeric", f"--r-values={rates}", "--format", fmt],
                        check="bs-classify", fmt=fmt))
    return ops


def states_ops(rng: random.Random) -> list:
    """gk through the CLI: many small grids, a minority at 65537."""
    ops = []
    for n, per_model in ((4097, 7), (65537, 1)):
        for _ in range(per_model):
            for model in STATE_MODELS:
                extra = ["--model", model,
                         "--j", repr(_coef(rng, 0.2, 1.5)),
                         "--gamma", repr(_coef(rng, 0.0, 3.1416)),
                         "--family", rng.choice(("phi", "psi"))]
                ops.append(_cli("gk", n, extra, check="gk",
                                source={"model": model, "bind": {}}))
    return ops


_OP_LISTS = {"tables": tables_ops, "verify": verify_ops, "states": states_ops}


def op_list(workload: str, seed: int) -> list:
    """The workload's ops for one pass; the same seed gives the same list."""
    if workload not in _OP_LISTS:
        raise KeyError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    return _OP_LISTS[workload](random.Random(f"{workload}:{seed}"))


def warmup_ops(ops: list) -> list:
    """Each distinct op once more at the smallest grid, before timing."""
    out, seen = [], set()
    for op in ops:
        small = dict(op, n=WARMUP_N)
        if op["kind"] == "cli":
            argv = list(op["argv"])
            argv[argv.index("--grid-n") + 1] = str(WARMUP_N)
            small["argv"] = argv
        key = json.dumps(small, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(small)
    return out


def model_specs(ops: list) -> list:
    """The distinct models and user pairs an op list builds, which is what
    set-up time covers."""
    specs = []
    for op in ops:
        src = op.get("source")
        if src is not None and src not in specs:
            specs.append(src)
    return specs
