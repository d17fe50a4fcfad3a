"""Table writers: frozen output digests, and a property test of the
column-wise writer against a plain row writer."""

import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyq import cli, floattext

CASES = {
    "potentials-harmonic": ["potentials", "--model", "harmonic"],
    "potentials-deformed-harmonic": ["potentials", "--model", "deformed-harmonic"],
    "potentials-black-scholes": ["potentials", "--model", "black-scholes",
                                 "--bind", "r=-0.7"],
    "potentials-user-pole": ["potentials", "--wA", "x + 1/x", "--wB", "x",
                             "--grid-n", "4096"],
    "vacua-harmonic": ["vacua", "--model", "harmonic"],
    "vacua-black-scholes": ["vacua", "--model", "black-scholes", "--bind", "r=-0.7"],
    "vacua-pseudo-bosonic": ["vacua", "--model", "pseudo-bosonic",
                             "--normalization", "unit"],
    "vacua-user-pole": ["vacua", "--wA", "x + 1/x", "--wB", "x", "--grid-n", "4096"],
    "bs-classify-numeric": ["bs-classify", "--numeric", "--r-values=-0.5,0.3,1.5"],
    # gk writes its CSVs whatever --format says; the swanson resolution
    # table is empty and the harmonic curve to J=50 stops early
    "gk-harmonic": ["gk", "--model", "harmonic"],
    "gk-harmonic-short-curve": ["gk", "--model", "harmonic", "--j-max", "50"],
    "gk-swanson": ["gk", "--model", "swanson"],
    **{f"verify-{m}": ["verify", "--model", m]
       for m in ("black-scholes", "deformed-harmonic", "harmonic", "pseudo-bosonic",
                 "swanson")},
}

# Cases whose values come from + - * / on a linspace grid (or are booleans)
# and so hash the same on every host.
HOST_INDEPENDENT = {"potentials-harmonic", "potentials-user-pole", "bs-classify-numeric"}

# sha256 of every file each case writes: the potentials, vacua and
# bs-classify cases recorded with the row-at-a-time writers that the
# column-wise ones replaced, the gk and verify cases with the csv-module
# writer and hand-written pairing loops that the shared table writer and
# biorthogonality_defect replaced.  Transcendental ufuncs may
# differ in the last bit between numpy builds and SIMD targets, so the
# digests of the other cases hold only where they were made.
DIGEST_ENV = {"numpy": "2.4.6",
              "simd_targets": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}
DIGESTS = {
    "bs-classify-numeric/csv": {
        "bs-classification.csv":
            "a3a66adbd785967fb147077703b39d68db9a63ab716dc42a0321b7721392b857",
    },
    "bs-classify-numeric/json": {
        "bs-classification.json":
            "7c35a6d2e5192780cd623c2db4b1f54739510f1bc0dbf297712f1cf733c4b8a2",
    },
    "gk-harmonic-short-curve/csv": {
        "gk-kcurve.csv":
            "491f4af2a82caa9b50282503cdae7eacf26494bc0f12d15ddd21d1805a300eb7",
        "gk-resolution.csv":
            "630c75a4c7ce6f6227f412579f76895ddc35cbdedc1cec9ec95bcb484f7af628",
        "gk-state.json":
            "59ee04990923c568c84923f2455214f12f01ff4787ee00dd09ca52c7ec508286",
    },
    "gk-harmonic-short-curve/json": {
        "gk-kcurve.csv":
            "491f4af2a82caa9b50282503cdae7eacf26494bc0f12d15ddd21d1805a300eb7",
        "gk-resolution.csv":
            "630c75a4c7ce6f6227f412579f76895ddc35cbdedc1cec9ec95bcb484f7af628",
        "gk-state.json":
            "59ee04990923c568c84923f2455214f12f01ff4787ee00dd09ca52c7ec508286",
    },
    "gk-harmonic/csv": {
        "gk-kcurve.csv":
            "f4eddfb747fe22a91765ed3dfc226105bcbceb723872690a325d6df56954a7bc",
        "gk-resolution.csv":
            "630c75a4c7ce6f6227f412579f76895ddc35cbdedc1cec9ec95bcb484f7af628",
        "gk-state.json":
            "2141efd74aff337fa500558b202b00878794ac59ed4868b9e0778adb866a8d42",
    },
    "gk-harmonic/json": {
        "gk-kcurve.csv":
            "f4eddfb747fe22a91765ed3dfc226105bcbceb723872690a325d6df56954a7bc",
        "gk-resolution.csv":
            "630c75a4c7ce6f6227f412579f76895ddc35cbdedc1cec9ec95bcb484f7af628",
        "gk-state.json":
            "2141efd74aff337fa500558b202b00878794ac59ed4868b9e0778adb866a8d42",
    },
    "gk-swanson/csv": {
        "gk-kcurve.csv":
            "94e8b9e7ee3bb1dcf0499d9c45232cde4d92bbfa99d0a8fd4532bb5e01e0dd1e",
        "gk-resolution.csv":
            "8f37efdc6226a6db06c5c68f7c6e5e65c6d7090751b195fb3ed873ae0abb4eeb",
        "gk-state.json":
            "52cdf729e38e54fba748d73433693514bf877db97ed93a8a8f44053024d1ebaf",
    },
    "gk-swanson/json": {
        "gk-kcurve.csv":
            "94e8b9e7ee3bb1dcf0499d9c45232cde4d92bbfa99d0a8fd4532bb5e01e0dd1e",
        "gk-resolution.csv":
            "8f37efdc6226a6db06c5c68f7c6e5e65c6d7090751b195fb3ed873ae0abb4eeb",
        "gk-state.json":
            "52cdf729e38e54fba748d73433693514bf877db97ed93a8a8f44053024d1ebaf",
    },
    "verify-black-scholes/csv": {
        "verify.json":
            "fdfcd6f8e02ff2702948627a589ace266de51dfe91aa47b84a331d7d3c47244e",
    },
    "verify-black-scholes/json": {
        "verify.json":
            "fdfcd6f8e02ff2702948627a589ace266de51dfe91aa47b84a331d7d3c47244e",
    },
    "verify-deformed-harmonic/csv": {
        "verify.json":
            "f3c7a123869d41a4dd731921369a4914221ef5a2bb4c3639b0c506d41a9eb682",
    },
    "verify-deformed-harmonic/json": {
        "verify.json":
            "f3c7a123869d41a4dd731921369a4914221ef5a2bb4c3639b0c506d41a9eb682",
    },
    "verify-harmonic/csv": {
        "verify.json":
            "a2b5e4919527c07bd6f153212257d7eca0de9ef162124356ed92e60e53904d13",
    },
    "verify-harmonic/json": {
        "verify.json":
            "a2b5e4919527c07bd6f153212257d7eca0de9ef162124356ed92e60e53904d13",
    },
    "verify-pseudo-bosonic/csv": {
        "verify.json":
            "3c7ce63122eca99a3e09c589925422857c2c47b97ce7990bc06d013253040306",
    },
    "verify-pseudo-bosonic/json": {
        "verify.json":
            "3c7ce63122eca99a3e09c589925422857c2c47b97ce7990bc06d013253040306",
    },
    "verify-swanson/csv": {
        "verify.json":
            "90ab1e5bca14cbd303700cd7c3d7a1a8b73327c000ceb12808a2abc74db1fa59",
    },
    "verify-swanson/json": {
        "verify.json":
            "90ab1e5bca14cbd303700cd7c3d7a1a8b73327c000ceb12808a2abc74db1fa59",
    },
    "potentials-black-scholes/csv": {
        "potentials-meta.json":
            "4455ee1b5b954de8ee9397a12685ff037fc7104c264fb3ee242dc40f37cfcd68",
        "potentials.csv":
            "3fb061e98244b86ea37f08d62d52a4b333ebc19e90df935493849272887eb889",
    },
    "potentials-black-scholes/json": {
        "potentials-meta.json":
            "4455ee1b5b954de8ee9397a12685ff037fc7104c264fb3ee242dc40f37cfcd68",
        "potentials.json":
            "46d82949a7406bc06de714dddc16ff0904fab47af59e7158797a9dab0d7b3a3a",
    },
    "potentials-deformed-harmonic/csv": {
        "potentials-meta.json":
            "df432a9cb00a2807aa1b75c272b9bbdd27edd01bd76ab3e8f879c26e45c0a634",
        "potentials.csv":
            "102c5279e5219a16eee2ce9ec2ae3418ece6b7c007e80b9f4ace91a96d9d3979",
    },
    "potentials-deformed-harmonic/json": {
        "potentials-meta.json":
            "df432a9cb00a2807aa1b75c272b9bbdd27edd01bd76ab3e8f879c26e45c0a634",
        "potentials.json":
            "0415bc0a3c38f02de18da44cf29fe69e345dda353fe072b31acf9f4f3577e2fa",
    },
    "potentials-harmonic/csv": {
        "potentials-meta.json":
            "8b50be880b0460134f4071de48adbe16b0a8dc115d74b4e10d59e979e52be6f4",
        "potentials.csv":
            "781bc6bbf16da9427c4ffa224fba24beed8ecbcaecf205320cffcdf7f5061044",
    },
    "potentials-harmonic/json": {
        "potentials-meta.json":
            "8b50be880b0460134f4071de48adbe16b0a8dc115d74b4e10d59e979e52be6f4",
        "potentials.json":
            "5aefa2fd7f38b40cbfc91f1ba35889d38cb1a205db16f76d291bfe7bcf970a8b",
    },
    "potentials-user-pole/csv": {
        "potentials-meta.json":
            "c0c1037a8c205bd585e130bd322c3c8a2240d1df33eeb8002b5589bff38b2364",
        "potentials.csv":
            "9de1f6cd0f24ce924158fded3b957f19ade6d7095ff38048c2b10c08a8d7410d",
    },
    "potentials-user-pole/json": {
        "potentials-meta.json":
            "c0c1037a8c205bd585e130bd322c3c8a2240d1df33eeb8002b5589bff38b2364",
        "potentials.json":
            "1545d666baf95da819af6ac5a846013c2cb998c89f8bcb11800e7e5d6a593d9a",
    },
    "vacua-black-scholes/csv": {
        "vacua-report.json":
            "cb2a43e102b3d84392ad4b3427bc9bebef8f37a40a41ead2add2334c46bb234b",
        "vacua.csv":
            "548a5b40f3a564d0556028a1b2c46f19712c2505c1e95005ac5e7f06a5e3333d",
    },
    "vacua-black-scholes/json": {
        "vacua-report.json":
            "cb2a43e102b3d84392ad4b3427bc9bebef8f37a40a41ead2add2334c46bb234b",
        "vacua.json":
            "ce3082af2bd76a35ff526ce69ce592c02cd0eb6f42ce9c27340f381e6c7953d6",
    },
    "vacua-harmonic/csv": {
        "vacua-report.json":
            "dec8f8da2acd84388f395c3789a9245ce4fe790d748e487281b5ae43f60b6a18",
        "vacua.csv":
            "e690c91c98ab768b01cf96ca8e0d0e016ecf56d9c3bd622b320da5f853f7f7dc",
    },
    "vacua-harmonic/json": {
        "vacua-report.json":
            "dec8f8da2acd84388f395c3789a9245ce4fe790d748e487281b5ae43f60b6a18",
        "vacua.json":
            "519b7d2719a6253a02c6db78b1ec6a5a1f6e76f94f99a127ed56ff90b4c2ef1b",
    },
    "vacua-pseudo-bosonic/csv": {
        "vacua-report.json":
            "a7e4c73b729e3a0f95c4200462e01269c4705b9593510793e1e6897e38731cdb",
        "vacua.csv":
            "02fb3b2fc051f4fe3554d6f79b0a09005ef3f0767503c31d1bc16f595140c29c",
    },
    "vacua-pseudo-bosonic/json": {
        "vacua-report.json":
            "a7e4c73b729e3a0f95c4200462e01269c4705b9593510793e1e6897e38731cdb",
        "vacua.json":
            "af23230493971ac3ae320e0c27b478e6bfced84e3445defc0caf0b787394d2bc",
    },
    "vacua-user-pole/csv": {
        "vacua-report.json":
            "49d74625db62b3ac96593c57caf83e2327596a112ca2a58a58802b7dfc664852",
        "vacua.csv":
            "3edf96c33426ae37d9ff8d3763920c6562307b35fb2bd157035cf19ba93c635a",
    },
    "vacua-user-pole/json": {
        "vacua-report.json":
            "49d74625db62b3ac96593c57caf83e2327596a112ca2a58a58802b7dfc664852",
        "vacua.json":
            "5d70db4853fcec6e8596033edecfeedcb9836a2466bc752c8f2fa9462a6371c7",
    },
}


def _simd_targets() -> list:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def _run(argv, out) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--out", str(out)])


def _digests(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_table_outputs_match_frozen_digests(case, fmt, tmp_path):
    env = {"numpy": np.__version__, "simd_targets": _simd_targets()}
    if case not in HOST_INDEPENDENT and env != DIGEST_ENV:
        pytest.skip(f"digests were made with {DIGEST_ENV}, not {env}")
    assert _run(CASES[case] + ["--format", fmt], tmp_path) == 0
    assert _digests(tmp_path) == DIGESTS[f"{case}/{fmt}"]


# ---------------------------------------------------------------------------
# the column-wise writer against a row-at-a-time reference

def _reference_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def reference_table(fmt, header, columns) -> str:
    """The table as csv.writer and json.dumps write it from a list of rows."""
    rows = list(zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns]))
    if fmt == "csv":
        # with a "\r\n" terminator csv.writer quotes a lone "\r" on every
        # Python version, as the table writer does; each row's terminator
        # is then swapped for "\n"
        lines = []
        for row in [header] + [[_reference_cell(v) for v in row] for row in rows]:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(row)
            lines.append(buf.getvalue()[:-2] + "\n")
        return "".join(lines)
    payload = cli._jsonable([dict(zip(header, row)) for row in rows])
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emitted_table(fmt, header, columns) -> str:
    with tempfile.TemporaryDirectory() as d:
        cfg = cli.RunConfig(command="test", out=d, fmt=fmt)
        path = cli._emit_table(cfg, "table", header, columns)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


def assert_same_text(got: str, want: str) -> None:
    """Equality with a short report; pytest's own diff of long texts is slow."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        lo = max(i - 60, 0)
        raise AssertionError(f"texts differ at offset {i}: got {got[lo:i + 60]!r}, "
                             f"want {want[lo:i + 60]!r}")


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16,
                     float("inf"), float("-inf"), float("nan")]),
    st.floats(width=64),
)
_TEXT = st.text(st.sampled_from(list('ab1 ,;"\n\r{}[]\\:\x00\té€\U0001f600')),
                max_size=6)


@st.composite
def tables(draw):
    """(header, columns): one to five columns, each float, str or bool."""
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(1, 5))
    header = draw(st.lists(_TEXT, min_size=n_cols, max_size=n_cols, unique=True))
    columns = []
    for _ in range(n_cols):
        cells = st.sampled_from([_FLOATS, _TEXT, st.booleans()]).flatmap(
            lambda s: st.lists(s, min_size=n_rows, max_size=n_rows))
        col = draw(cells)
        if col and isinstance(col[0], float):
            col = np.array(col, dtype=np.float64)
        columns.append(col)
    return header, columns


@settings(max_examples=300, deadline=None)
@given(tables())
def test_json_table_matches_the_row_writer(table):
    header, columns = table
    assert_same_text(emitted_table("json", header, columns),
                     reference_table("json", header, columns))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_csv_table_matches_the_row_writer(table):
    header, columns = table
    assert_same_text(emitted_table("csv", header, columns),
                     reference_table("csv", header, columns))


def test_string_cells_get_minimal_quoting():
    header = ["x", "note"]
    columns = [np.array([1.0, 2.0, 3.0, 4.0]), ["plain", 'say "hi"', "a,b", "cr\rlf\n"]]
    assert emitted_table("csv", header, columns) == (
        'x,note\n1,plain\n2,"say ""hi"""\n3,"a,b"\n4,"cr\rlf\n"\n')


def test_one_column_tables_quote_a_lone_empty_cell():
    header, columns = [""], [["", "a", ""]]
    assert emitted_table("csv", header, columns) == '""\n""\na\n""\n'
    assert_same_text(emitted_table("csv", header, columns),
                     reference_table("csv", header, columns))


def test_empty_tables():
    header, columns = ["r", "ok"], [np.array([]), []]
    assert emitted_table("csv", header, columns) == "r,ok\n"
    assert emitted_table("json", header, columns) == "[]\n"


def test_tables_longer_than_one_block():
    n = 2 * cli._BLOCK_ROWS + 3
    header = ["x", "y", "note"]
    columns = [np.linspace(-1.0, 1.0, n), np.arange(n) / 7.0, ["", "p"] * (n // 2) + [""]]
    for fmt in ("csv", "json"):
        assert_same_text(emitted_table(fmt, header, columns),
                         reference_table(fmt, header, columns))


# ---------------------------------------------------------------------------
# repeated cells, which the writers format once per distinct value in a block

def _float_with_bits(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0].item()


_POOL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("-nan"),
                     _float_with_bits(0x7FF8000000000001),  # a NaN with a payload
                     float("inf"), float("-inf"), 5e-324, 1.0, -2.5, 0.1]),
    st.floats(width=64),
)


@st.composite
def repeating_tables(draw):
    """(header, columns) whose cells repeat: each column draws its cells from
    a small pool of floats, strings or booleans drawn first."""
    n_rows = draw(st.integers(0, 40))
    n_cols = draw(st.integers(1, 4))
    header = draw(st.lists(_TEXT, min_size=n_cols, max_size=n_cols, unique=True))
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from([_POOL_FLOATS, _TEXT, st.booleans()]))
        pool = draw(st.lists(kind, min_size=1, max_size=4))
        col = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        if kind is _POOL_FLOATS:
            col = np.array(col, dtype=np.float64)
        columns.append(col)
    return header, columns


@settings(max_examples=300, deadline=None)
@given(repeating_tables())
def test_repeated_cells_match_the_row_writer(table):
    header, columns = table
    for fmt in ("csv", "json"):
        assert_same_text(emitted_table(fmt, header, columns),
                         reference_table(fmt, header, columns))


@pytest.mark.parametrize("n", [cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS,
                               2 * cli._BLOCK_ROWS + 1])
def test_repeated_cells_across_block_edges(n):
    z = np.exp(1j * np.round(np.linspace(-3.0, 3.0, n), 2))  # each phase repeats
    note = [""] * n
    for i in range(0, n, 997):
        note[i] = f"pole x0={cli._fmt(i / 7.0)}"
    note[n // 2] = "a,b"
    header = ["const", "signed_zero", "z_im", "annotation"]
    columns = [np.full(n, 0.25), np.resize([0.0, -0.0], n), z.imag, note]
    for fmt in ("csv", "json"):
        assert_same_text(emitted_table(fmt, header, columns),
                         reference_table(fmt, header, columns))


@settings(max_examples=300, deadline=None)
@given(st.one_of(tables(), repeating_tables()))
def test_the_array_kernel_matches_the_row_writer(table):
    """The drawn tables are shorter than floattext._KERNEL_ROWS, so the
    tests above format their numbers in Python; here every float column
    takes the array kernel, next to string cells that hold NUL, non-ASCII
    and quotes."""
    header, columns = table
    with mock.patch.object(floattext, "_KERNEL_ROWS", 1):
        for fmt in ("csv", "json"):
            assert_same_text(emitted_table(fmt, header, columns),
                             reference_table(fmt, header, columns))


# ---------------------------------------------------------------------------
# constant columns, folded into the row literals, and repeated float
# columns, which reuse the cells of an earlier one

_NAN_PAYLOAD = _float_with_bits(0x7FF8000000000001)
_CONSTANT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), _NAN_PAYLOAD, float("inf"), float("-inf"),
                     5e-324]),
    st.floats(width=64),
)
_CONSTANT_TEXT = st.one_of(st.sampled_from(["", ",", '"', "\r", "\n", "\x00", 'a,"b"\r\n']),
                           _TEXT)
# the bits of each value that has a partner differing from it only in a
# zero's sign or a NaN's payload, and that partner
_PARTNER = {np.float64(v).view(np.uint64).item(): w
            for v, w in [(0.0, -0.0), (-0.0, 0.0), (float("nan"), _NAN_PAYLOAD),
                         (_NAN_PAYLOAD, float("nan"))]}


@st.composite
def column_rule_tables(draw):
    """(header, columns) whose columns are constant, repeat an earlier float
    column bit for bit, differ from one only in a zero's sign or a NaN
    payload, or vary; row counts straddle the kernel's and the block's
    thresholds."""
    n_rows = draw(st.sampled_from([1, 2, floattext._KERNEL_ROWS - 1, floattext._KERNEL_ROWS,
                                   floattext._KERNEL_ROWS + 1, cli._BLOCK_ROWS - 1,
                                   cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1]))
    n_cols = draw(st.integers(1, 5))
    header = draw(st.lists(_TEXT, min_size=n_cols, max_size=n_cols, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(n_cols):
        floats = [c for c in columns if isinstance(c, np.ndarray)]
        kind = draw(st.sampled_from(["constant", "varied"]
                                    + ["repeat", "near repeat"] * bool(floats)))
        if kind == "constant":
            value = draw(st.one_of(_CONSTANT_FLOATS, _CONSTANT_TEXT, st.booleans()))
            col = np.full(n_rows, value) if isinstance(value, float) else [value] * n_rows
        elif kind == "varied" and draw(st.booleans()):
            pool = draw(st.lists(_CONSTANT_TEXT, min_size=2, max_size=4, unique=True))
            col = [pool[i] for i in rng.integers(len(pool), size=n_rows)]
        elif kind == "varied":
            pool = np.array(draw(st.lists(_POOL_FLOATS, min_size=1, max_size=4))
                            + [0.0, -0.0, float("nan"), _NAN_PAYLOAD])
            col = np.where(rng.random(n_rows) < 0.5, pool[rng.integers(len(pool), size=n_rows)],
                           rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows))
        else:
            base = draw(st.sampled_from(floats))
            col = base if kind == "repeat" and draw(st.booleans()) else base.copy()
            if kind == "near repeat":
                # flip some of the base's zeros and NaNs, or plant one pair
                bits = base.view(np.uint64)
                rows = np.flatnonzero(np.isin(bits, list(_PARTNER)))
                if not len(rows):
                    rows = [draw(st.integers(0, n_rows - 1))]
                    base[rows[0]] = draw(st.sampled_from([0.0, -0.0, float("nan")]))
                for i in rows[:draw(st.integers(1, len(rows)))]:
                    col[i] = _PARTNER[int(bits[i])]
        columns.append(col)
    return header, columns


@settings(max_examples=60, deadline=None)
@given(column_rule_tables())
def test_constant_and_repeated_columns_match_the_row_writer(table):
    header, columns = table
    want = {fmt: reference_table(fmt, header, columns) for fmt in ("csv", "json")}
    for kernel_rows in (floattext._KERNEL_ROWS, 1):
        with mock.patch.object(floattext, "_KERNEL_ROWS", kernel_rows):
            for fmt in ("csv", "json"):
                assert_same_text(emitted_table(fmt, header, columns), want[fmt])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_constant_column_is_formatted_once_a_block_and_a_repeat_never(fmt):
    n = 2 * cli._BLOCK_ROWS + 5
    x = np.linspace(-1.0, 1.0, n)
    header = ["a_x", "b_constant", "c_repeat"]
    columns = [x, np.full(n, 0.1), x.copy()]
    rows = []
    cells = floattext.cells

    def counted(values, style):
        rows.append(len(values))
        return cells(values, style)

    with mock.patch.object(floattext, "cells", counted):
        got = emitted_table(fmt, header, columns)
    assert rows == [cli._BLOCK_ROWS, 1, cli._BLOCK_ROWS, 1, 5, 1]
    assert_same_text(got, reference_table(fmt, header, columns))
