"""Grammar-driven fuzzing of the command line: every argv ends in a verdict.

The argvs are drawn from docs/expression-grammar.md (atoms, the five
functions, integer powers, unary minus and the four operators), plus random
bindings, grid sizes and half-widths, gk labels and bs-classify rates, each
subcommand with only the flags it reads.  Each runs in process through
``cli.main``.  Whatever the input, the run must end in one of the
documented exit codes 0-4 and never in an internal error; a rejected input
(exit 2, 3 or 4) is reported on exactly one ``susyq:`` line.

The example count comes from the hypothesis profile: the default in tier-1,
``--hypothesis-profile=long`` for the long run (see conftest.py).
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, seed, settings, strategies as st

from susyq import cli

# each model's parameters; "k" and "a" are the parameters the drawn expressions use
MODEL_PARAMS = {
    "harmonic": (),
    "deformed-harmonic": ("q",),
    "swanson": ("theta",),
    "black-scholes": ("r", "v0"),
    "pseudo-bosonic": ("k",),
}
MODELS = tuple(MODEL_PARAMS)

NUMBERS = st.sampled_from(
    ["0", "1", "2", "3", "0.5", "2.5e-1", "1e-3", "1e300", "0.3i", "1e-2i", "400"])
ATOMS = st.one_of(NUMBERS, st.just("x"), st.sampled_from(["k", "a"]))
FUNCTIONS = st.sampled_from(["exp", "sin", "cos", "tanh", "ln"])
POWERS = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 7, 400])


def _extend(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        sub.map(lambda s: f"-{s}"),
        st.tuples(FUNCTIONS, sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, POWERS).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda s: f"({s})"),
    )


GRAMMATICAL = st.recursive(ATOMS, _extend, max_leaves=6)
EXPRESSIONS = st.one_of(
    GRAMMATICAL,
    GRAMMATICAL,
    st.text(alphabet="x0123456789.e+-*/^()i ", min_size=1, max_size=8),  # mostly malformed
)

# a real flag or binding value: mostly ordinary, sometimes out of range
REALS = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False).map(repr),
    st.sampled_from(["0", "1", "-1", "0.5", "2", "10", "1e200", "1e308", "-1e308",
                     "1e-300", "inf", "-inf", "nan"]),
)
LABELS = st.one_of(st.floats(0.0, 3.0, exclude_min=True).map(repr), REALS)  # gk's J, gamma

# --bind values as written on the command line: JSON numbers and [re, im]
# pairs, malformed JSON that stays a string, and expressions (the
# deformation profile q is one)
BIND_VALUES = st.one_of(
    REALS,
    REALS,
    st.sampled_from(["1e400", "NaN", "true", "null", "{}", "[0.1,0.2]", "[1e200,1e200]",
                     "[1]", '"s"', '["a",1]', "[[1],2]", "abc", "0.5*tanh(x)",
                     "0.6 + 0.1*sin(x)", "1 + 0.3i*x", "0.5*tanh(x) + 0.6 + 0.3i*sin(x)"]),
    EXPRESSIONS,
)

GRID = st.tuples(
    st.sampled_from([17, 65, 257, 1025]),
    st.one_of(st.none(), st.none(), st.floats(0.1, 40.0).map(repr),
              st.sampled_from(["12", "0.5", "30", "0", "-3", "1e-200", "1e308", "inf", "nan"])),
).map(lambda t: [f"--grid-n={t[0]}"] + ([] if t[1] is None else [f"--grid-l={t[1]}"]))


def _optional(draw, flag, values):
    value = draw(st.one_of(st.none(), values))
    return [] if value is None else [f"{flag}={value}"]


# bs-classify rates: mostly ordinary, sometimes out of range or not finite
RATES = st.lists(st.one_of(REALS, st.sampled_from(["0", "400", "-400", "-1"])),
                 min_size=1, max_size=4).map(",".join)


def _bs_classify(draw):
    argv = ["bs-classify"] + _optional(draw, "--r-values", RATES)
    if draw(st.booleans()):
        argv.append("--numeric")
    argv += _optional(draw, "--format", st.sampled_from(["csv", "json"]))
    argv += _optional(draw, "--bind", BIND_VALUES.map(lambda v: f"v0={v}"))
    return argv + draw(GRID)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["potentials", "vacua", "verify", "gk", "bs-classify"]))
    if command == "bs-classify":
        return _bs_classify(draw)
    # --model, or --wA/--wB; rarely both, one of the pair, or an unknown model
    kind = "model" if command == "gk" else draw(
        st.sampled_from(["model"] * 4 + ["pair"] * 4 + ["both", "half", "unknown"]))
    model = draw(st.sampled_from(MODELS))
    argv = [command]
    if kind in ("model", "both", "unknown"):
        argv.append(f"--model={model if kind != 'unknown' else 'no-such-model'}")
    if kind in ("pair", "both", "half"):
        argv.append(f"--wA={draw(EXPRESSIONS)}")
    if kind in ("pair", "both"):
        argv.append(f"--wB={draw(EXPRESSIONS)}")

    if command == "gk":
        argv += _optional(draw, "--j", LABELS)
        argv += _optional(draw, "--gamma", LABELS)
        argv += _optional(draw, "--j-max", LABELS)
        argv += _optional(draw, "--n-terms", st.sampled_from([1, 2, 5, 13, 26, 172]))
        argv += _optional(draw, "--family", st.sampled_from(["phi", "psi"]))
    if command == "vacua":
        argv += _optional(draw, "--normalization", st.sampled_from(["raw", "unit", "paired"]))
    if command == "verify" and kind == "model":
        argv += _optional(draw, "--perturb-wb", EXPRESSIONS)
    if command in ("potentials", "vacua"):
        argv += _optional(draw, "--format", st.sampled_from(["csv", "json"]))

    # mostly the source's own parameter names, sometimes a name it does not take
    own = MODEL_PARAMS[model] if kind == "model" else ("k", "a")
    names = st.sampled_from(own * 8 + ("k", "x", "exp", "theta", "q"))
    for name, value in draw(st.lists(st.tuples(names, BIND_VALUES), max_size=3)):
        argv.append(f"--bind={name}={value}")
    return argv + draw(GRID)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@seed(20261019)
@settings(deadline=None, database=None)
@given(argv=argvs())
def test_every_argv_ends_in_a_documented_exit(out_dir, argv):
    err = io.StringIO()
    # numpy's floating-point warnings are not part of the exit contract
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        code = cli.main(argv + [f"--out={out_dir}"])
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "internal error" not in err and "Traceback" not in err, (argv, err)
    if code >= 2:
        assert err.count("\n") == 1 and err.startswith("susyq: "), (argv, err)
    else:
        assert "susyq:" not in err, (argv, err)
        assert code == 0 or argv[0] == "verify", (argv, err)
