"""Command-line front end.

Subcommands load a registered model or a user superpotential pair, run the
verification suites, and emit potentials, vacua, state data, and reports
as CSV/JSON files under an output directory.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 pole on a grid node, 4 state-family domain rejection.  Data files are
byte-identical across runs of the same configuration; stdout lists the
files written, stderr carries diagnostics.  Any other exception is reported
as an internal error with exit 2, after its traceback on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import traceback
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from .deform import DeformationError
from .expr import ExprError, parse
from .gk import (
    GKError,
    action_identity,
    build_spectrum,
    lowering_defect,
    moment_density,
    normalization_K,
    pair_norm,
    spectrum_from_formula,
    state_pair,
)
from .models import (
    ModelError,
    ModelRecord,
    bs_classification,
    bs_numeric_flags,
    get_model,
    models_list,
)
from .numerics import Grid, PoleOnGridError, RepresentationError, inner
from .suites import verify_model, verify_pair
from .susy import build_pair

__all__ = ["main", "RunConfig"]

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_CONFIG = 2
_EXIT_POLE = 3
_EXIT_DOMAIN = 4

_TOLERANCE_NAMES = ("state",)  # the named tolerances some command reads


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Merged view of flags, an optional JSON config file, and environment.

    Precedence per key: command-line flag, then SUSYQ_GRID_N (grid size
    only), then the config file, then the built-in default.
    """

    command: str
    model: str | None = None
    w_a: str | None = None
    w_b: str | None = None
    bind: dict = field(default_factory=dict)
    grid_l: float = 12.0
    grid_n: int = 4097
    tolerances: dict = field(default_factory=dict)
    out: str = "susyq-out"
    fmt: str = "csv"
    j: float = 1.0
    gamma: float = 0.0
    family: str = "phi"
    n_terms: int = 26
    j_max: float | None = None
    spectrum_file: str | None = None
    normalization: str = "raw"
    perturb_wb: str | None = None
    r_values: tuple = (2.0, 1.0, 0.5, -0.5, -1.0, -2.0)
    numeric: bool = False

    def grid(self) -> Grid:
        try:
            return Grid(self.grid_l, self.grid_n)
        except ValueError as e:
            raise ConfigError(str(e)) from e


def _parse_bind_token(token: str):
    if "=" not in token:
        raise ConfigError(f"binding {token!r} is not of the form name=value")
    name, text = token.split("=", 1)
    name = name.strip()
    if not name:
        raise ConfigError(f"binding {token!r} has an empty name")
    try:
        return name, json.loads(text)
    except json.JSONDecodeError:
        return name, text  # expression-valued parameters stay strings


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from e


# ---------------------------------------------------------------------------
# options: each check takes a key and a given value and returns the value to use

def _number(kind, key: str, value):
    """``kind(value)``; a value that is not a number is a configuration error."""
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{key} must be a number, got {value!r}") from e
    except OverflowError as e:  # an integer past the double range
        raise ConfigError(f"{key} is out of float range") from e


def _integer(key: str, value) -> int:
    """``int(value)``; a bool or a float with a fraction is a configuration
    error, not a count of 1 or a truncated one."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return _number(int, key, value)


def _finite(key: str, value) -> float:
    """``float(value)``, which must be finite."""
    v = _number(float, key, value)
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {v!r}")
    return v


def _positive(key: str, value) -> float:
    v = _finite(key, value)
    if v <= 0:
        raise ConfigError(f"{key} must be positive, got {v!r}")
    return v


def _string(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _boolean(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true, false or null, got {value!r}")
    return value


def _object(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    return dict(value)


def _rates(key: str, value) -> tuple:
    """A list of finite numbers, or a comma-separated string of them."""
    if isinstance(value, str):
        value = [t for t in value.split(",") if t.strip()]
    elif not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of numbers or a comma-separated string")
    return tuple(_finite(f"{key} entry", t) for t in value)


def _tolerances(key: str, value) -> dict:
    """Known names only, each a positive finite number."""
    value = _object(key, value)
    unknown = sorted(set(value) - set(_TOLERANCE_NAMES))
    if unknown:
        raise ConfigError(f"unknown tolerance name(s) {', '.join(unknown)} "
                          f"(known: {', '.join(_TOLERANCE_NAMES)})")
    for name, v in value.items():
        what = f"bad tolerance value: {name}"
        if isinstance(v, bool) or not 0.0 < _number(float, what, v) < math.inf:
            raise ConfigError(f"{what} must be a positive finite number, got {v!r}")
    return {name: float(v) for name, v in value.items()}


def _or_null(check):
    """``check``, except that null stands for the key not given (None)."""
    return lambda key, value: None if value is None else check(key, value)


def _one_of(noun: str, *choices: str):
    """The check of an option that takes one of ``choices``; the parser offers them too."""
    listing = ", ".join(choices[:-1]) + ("," if len(choices) > 2 else "") + f" or {choices[-1]}"

    def check(key: str, value) -> str:
        if _string(key, value) not in choices:
            raise ConfigError(f"unknown {noun} {value!r} ({listing})")
        return value

    check.choices = choices
    return check


class _Option(NamedTuple):
    """A ``RunConfig`` field, its flag and config key (``grid.L``: key L of the object grid),
    the subcommands that read it, the check of every given value, its help, its other
    ``add_argument`` keywords, and an environment variable between flag and file."""

    field: str
    flag: str
    key: str
    commands: tuple
    check: Callable
    help: str
    parse: dict = {}
    env: str = ""


_ALL = ("potentials", "vacua", "verify", "gk", "bs-classify")  # models-list reads no flag
_PAIR = ("potentials", "vacua", "verify")  # --model or --wA/--wB
_GK, _BS = ("gk",), ("bs-classify",)
_REPEATABLE = {"action": "append", "metavar": "NAME=VALUE"}
_TEXT = _or_null(_string)  # a string, or null for a key not given

# each option once; a subcommand's --help lists its rows in this order
_OPTIONS = (
    _Option("model", "--model", "model", _PAIR + _GK, _TEXT, "registered model name"),
    _Option("w_a", "--wA", "wA", _PAIR, _TEXT, "first superpotential expression"),
    _Option("w_b", "--wB", "wB", _PAIR, _TEXT, "second superpotential expression"),
    _Option("bind", "--bind", "bind", _ALL, _object, "parameter binding; repeatable", _REPEATABLE),
    _Option("grid_l", "--grid-l", "grid.L", _ALL, functools.partial(_number, float),
            f"grid half-width L (default {RunConfig.grid_l:g})"),
    _Option("grid_n", "--grid-n", "grid.N", _ALL, _integer,
            f"grid points N (default {RunConfig.grid_n}; env SUSYQ_GRID_N)", env="SUSYQ_GRID_N"),
    _Option("tolerances", "--tol", "tolerances", _GK, _tolerances,
            "named tolerance override; repeatable", _REPEATABLE),
    _Option("out", "--out", "out", _ALL, _string, f"output directory (default {RunConfig.out})"),
    _Option("fmt", "--format", "format", ("potentials", "vacua") + _BS,
            _one_of("output format", "csv", "json"), f"table format (default {RunConfig.fmt})"),
    _Option("normalization", "--normalization", "normalization", ("vacua",),
            _one_of("normalization", "raw", "unit", "paired"),
            f"vacuum normalization policy (default {RunConfig.normalization})"),
    _Option("perturb_wb", "--perturb-wb", "perturb_wb", ("verify",), _TEXT,
            "add EXPR to the second superpotential (negative test)", {"metavar": "EXPR"}),
    _Option("j", "--j", "J", _GK, _finite, f"action label J (default {RunConfig.j:g})"),
    _Option("gamma", "--gamma", "gamma", _GK, _finite,
            f"angle label (default {RunConfig.gamma:g})"),
    _Option("family", "--family", "family", _GK, _one_of("state family", "phi", "psi"),
            f"which family the state report features (default {RunConfig.family})"),
    _Option("n_terms", "--n-terms", "n_terms", _GK, _integer,
            f"basis truncation (default {RunConfig.n_terms})"),
    _Option("j_max", "--j-max", "j_max", _GK, _or_null(_positive),
            "upper end of the K(J) curve (default min(J_min, 10))"),
    _Option("spectrum_file", "--spectrum-file", "spectrum_file", _GK, _TEXT,
            "JSON list of eigenvalues replacing the model formula", {"metavar": "PATH"}),
    _Option("r_values", "--r-values", "r_values", _BS, _or_null(_rates),
            "comma-separated rate list"),
    _Option("numeric", "--numeric", "numeric", _BS, _or_null(_boolean),
            "re-derive each row from fitted decay exponents",
            {"action": "store_true", "default": None}),
)


def _merge_config(args) -> RunConfig:
    """Every value given is checked, a file's value also where a flag
    overrides it or the command does not read it; other file keys are ignored."""
    file_cfg = _read_json(args.config, "config file") if getattr(args, "config", None) else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    values = {}
    for opt in _OPTIONS:
        flag = getattr(args, opt.flag[2:].replace("-", "_"), None)  # argparse's dest
        if isinstance(flag, list):  # a repeatable flag's NAME=VALUE tokens make an object
            flag = dict(map(_parse_bind_token, flag))
        env = os.environ.get(opt.env) or None
        # (name in a message, value) of each source that gives one, in precedence order
        given = [(label, v) for label, v in ((opt.key, flag), (opt.env, env)) if v is not None]
        section, _, name = opt.key.rpartition(".")
        source = _object(section, file_cfg.get(section, {})) if section else file_cfg
        if name in source:
            given.append((opt.key, source[name]))
        checked = [v for v in (opt.check(label, raw) for label, raw in given) if v is not None]
        if checked:  # else RunConfig's default
            # bindings and tolerances merge name by name, the flag's winning
            values[opt.field] = ({k: v for d in reversed(checked) for k, v in d.items()}
                                 if isinstance(checked[0], dict) else checked[0])
    return RunConfig(command=args.command, **values)


def _require_source(cfg: RunConfig):
    """Model name, or both superpotential sources; never a mix or neither."""
    if cfg.model is not None and (cfg.w_a or cfg.w_b):
        raise ConfigError("give either --model or --wA/--wB, not both")
    if cfg.model is None and not (cfg.w_a and cfg.w_b):
        raise ConfigError("need --model, or both --wA and --wB")


def _source(cfg: RunConfig):
    """(model record, grid, metadata) for --model or --wA/--wB, a user pair
    being a record without a name; the metadata holds the model, params, wA,
    wB and grid fields of a report."""
    _require_source(cfg)
    grid = cfg.grid()
    if cfg.model is not None:
        m = get_model(cfg.model, **cfg.bind)
    else:
        pair = build_pair(parse(cfg.w_a, cfg.bind), parse(cfg.w_b, cfg.bind))
        m = ModelRecord(name=None, params=dict(cfg.bind), pair=pair, energy=None)
    meta = {"model": m.name, "params": m.params, "wA": cfg.w_a, "wB": cfg.w_b,
            "grid": {"L": grid.half_width, "N": grid.n_points}}
    return m, grid, meta


# ---------------------------------------------------------------------------
# serialization helpers

def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _jsonable(obj):
    """Structure with only JSON-safe leaves; non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isfinite(v):
            return v
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# rows formatted at once: bounds the memory a table needs, and keeps a wide
# block's byte matrix near the cache
_BLOCK_ROWS = 4096
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_text(s: str) -> str:
    """A string cell quoted only when it holds a comma, quote or line break."""
    if _CSV_SPECIAL.search(s):
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_cell(v) -> str:
    return ("true" if v else "false") if isinstance(v, bool) else _csv_text(v)


def _json_cell(v) -> str:
    return ("true" if v else "false") if isinstance(v, bool) else encode_basestring_ascii(v)


def _column_cells(col, style: str, one_column: bool) -> tuple:
    """(uint8 matrix, first, end): cell i of a block's column is
    ``matrix[i, first[i]:end[i]]``.

    A float column goes through ``floattext.cells``; each distinct str or
    bool cell is formatted once.  csv.writer quotes a lone empty field,
    which would otherwise read as a blank line, so a one-column CSV writes "".
    """
    if isinstance(col, np.ndarray):
        # imported here, so that only the commands that write a table load it
        from . import floattext

        return floattext.cells(col, style)
    cell = _json_cell if style == "json" else (
        (lambda v: _csv_cell(v) or '""') if one_column else _csv_cell)
    index = {v: i for i, v in enumerate(dict.fromkeys(col))}
    data = [cell(v).encode("utf-8") for v in index]
    sizes = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    width = max(int(sizes.max(initial=0)), 1)
    table = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    codes = np.fromiter(map(index.__getitem__, col), dtype=np.intp, count=len(col))
    return table[codes], 0, sizes[codes]


@functools.lru_cache(maxsize=32)
def _span_masks(width: int) -> np.ndarray:
    """Row ``first * (width + 1) + end`` is True from ``first`` to ``end``."""
    first, end = np.divmod(np.arange(2 * (width + 1)), width + 1)
    j = np.arange(width)
    return (j >= first[:, None]) & (j < end[:, None])


def _rows(literals, cells) -> np.ndarray:
    """The bytes of each row, ``literals[0] cell_0 literals[1] ... cell_last
    literals[-1]``, one after the other.

    The block is one uint8 matrix, literals and padded cells side by side,
    compacted by the cells' spans: string cells may hold any byte, NUL too.
    """
    n_rows = len(cells[0][0])
    width = sum(map(len, literals)) + sum(m.shape[1] for m, _, _ in cells)
    text = np.empty((n_rows, width), dtype=np.uint8)
    keep = np.ones((n_rows, width), dtype=bool)
    at = 0
    for literal, (matrix, first, end) in zip(literals, cells):
        text[:, at:at + len(literal)] = np.frombuffer(literal, dtype=np.uint8)
        at += len(literal)
        w = matrix.shape[1]
        text[:, at:at + w] = matrix
        keep[:, at:at + w] = np.take(_span_masks(w), first * (w + 1) + end, axis=0)
        at += w
    text[:, at:] = np.frombuffer(literals[-1], dtype=np.uint8)
    return text[keep]


def _blocks(columns):
    """The table in slices of _BLOCK_ROWS rows, each a list of column slices;
    a column given twice is sliced once, so its two slices are one object."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        part = {id(col): col[start:start + _BLOCK_ROWS] for col in columns}
        yield [part[id(col)] for col in columns]


def _block_rows(literals, block, style: str):
    """``_rows`` of one block, after the two column rules of ``_write_table``."""
    one_column = len(block) == 1
    merged, cells, floats = [literals[0]], [], []
    for col, literal in zip(block, literals[1:]):
        bits = col.view(np.uint64) if isinstance(col, np.ndarray) else None
        # str == bool never holds, so equal str or bool cells share a type too
        if (bits == bits[0]).all() if bits is not None else col.count(col[0]) == len(col):
            cell = _rows([b"", b""], [_column_cells(col[:1], style, one_column)])
            merged[-1] += cell.tobytes() + literal
            continue
        if bits is None:
            cells.append(_column_cells(col, style, one_column))
        else:
            same = [c for prev, b, c in floats
                    if prev is col or b[0] == bits[0] and np.array_equal(b, bits)]
            cells.append(same[0] if same else _column_cells(col, style, one_column))
            floats.append((col, bits, cells[-1]))
        merged.append(literal)
    return _rows(merged, cells) if cells else merged[0] * len(block[0])


def _write_csv_table(fh, header, columns) -> None:
    fh.write(((",".join(map(_csv_text, header)) or '""') + "\n").encode("utf-8"))
    literals = [b""] + [b","] * (len(header) - 1) + [b"\n"]
    for block in _blocks(columns):
        fh.write(_block_rows(literals, block, "csv"))


def _write_json_table(fh, header, columns) -> None:
    """A list of row objects laid out as json.dump(..., indent=2,
    sort_keys=True) lays it out."""
    if not len(columns[0]):
        fh.write(b"[]\n")
        return
    order = sorted(range(len(header)), key=header.__getitem__)
    keys = [encode_basestring_ascii(header[j]).encode("ascii") for j in order]
    # each row opens with the comma that ends the row before it
    literals = ([b",\n  {\n    " + keys[0] + b": "]
                + [b",\n    " + key + b": " for key in keys[1:]] + [b"\n  }"])
    skip = 1  # the first row's comma
    fh.write(b"[")
    for block in _blocks(columns):
        fh.write(_block_rows(literals, [block[j] for j in order], "json")[skip:])
        skip = 0
    fh.write(b"\n]\n")


def _write_table(path: str, header, columns) -> str:
    """One table as CSV, or as a JSON list of row objects for a .json path.

    ``columns`` holds one entry per header name: a 1-D float64 array for a
    numeric column, a list of str or bool otherwise.  Each block of
    ``_BLOCK_ROWS`` rows is formatted a column at a time and written in one
    piece.  A column constant over a block, floats bit for bit, is formatted
    once and folded into the text between cells; a float column bitwise
    equal to an earlier one reuses its cells.  The numbers are the text of
    ``"{:.17g}".format`` in CSV and of ``repr`` in JSON, byte for byte.
    """
    write = _write_json_table if path.endswith(".json") else _write_csv_table
    with open(path, "wb") as fh:
        write(fh, header, columns)
    return path


def _emit_table(cfg: RunConfig, stem: str, header, columns) -> str:
    """The table ``stem`` in the output directory, in the --format chosen."""
    return _write_table(os.path.join(cfg.out, f"{stem}.{cfg.fmt}"), header, columns)


def _annotations(grid: Grid, singular_points) -> list:
    ann = [""] * grid.n_points
    for x0 in singular_points:
        idx = int(np.argmin(np.abs(grid.x - x0)))
        tag = f"pole x0={_fmt(x0)}"
        ann[idx] = f"{ann[idx]};{tag}" if ann[idx] else tag
    return ann


# ---------------------------------------------------------------------------
# subcommands

def _cmd_potentials(cfg: RunConfig) -> tuple:
    """sample the drift and the four potentials"""
    m, grid, meta = _source(cfg)
    pair = m.pair
    if pair is None:
        raise ConfigError(f"model {cfg.model!r} has no factorized pair")

    s = pair.samples(grid)  # raises PoleOnGridError if a node hits a pole
    names = ("q1", "v1", "v2", "v1_dual", "v2_dual")
    complex_valued = any(np.any(s[name].imag != 0.0) for name in names)

    header, columns = ["x"], [grid.x]
    for name in names:
        if complex_valued:
            header.extend([f"{name}_re", f"{name}_im"])
            columns.extend([s[name].real, s[name].imag])
        else:
            header.append(name)
            columns.append(s[name].real)
    header.append("annotation")
    columns.append(_annotations(grid, pair.singular_points))

    table = _emit_table(cfg, "potentials", header, columns)
    meta.update(complex_valued=complex_valued,
                singular_points=list(pair.singular_points), columns=header)
    return [table, _write_json(os.path.join(cfg.out, "potentials-meta.json"), meta)], _EXIT_OK


def _cmd_vacua(cfg: RunConfig) -> tuple:
    """factor vacua with decay and integrability report"""
    m, grid, report = _source(cfg)
    v = m.vacua(grid, cfg.normalization)

    header, columns = ["x"], [grid.x]
    for rec in v.records():
        f = rec.function
        header.extend([f"{rec.label}_logabs", f"{rec.label}_phase"])
        columns.extend([f.log_magnitude(), np.angle(f.values)])

    table = _emit_table(cfg, "vacua", header, columns)
    report.update(normalization=v.normalization,
                  records=[rec.summary() for rec in v.records()], notes=list(v.notes))
    return [table, _write_json(os.path.join(cfg.out, "vacua-report.json"), report)], _EXIT_OK


def _cmd_verify(cfg: RunConfig) -> tuple:
    """run the model's verification suite"""
    _require_source(cfg)
    grid = cfg.grid()
    if cfg.model is not None:
        suite = verify_model(cfg.model, grid=grid, perturb_wb=cfg.perturb_wb, **cfg.bind)
    else:
        if cfg.perturb_wb is not None:
            raise ConfigError("--perturb-wb applies to --model runs only")
        suite = verify_pair(cfg.w_a, cfg.w_b, cfg.bind, grid=grid)
    path = _write_json(os.path.join(cfg.out, "verify.json"), suite.payload())
    n_checks = sum(1 for _ in suite.checks())
    failed = [(name, c) for name, section in suite.sections.items()
              for c in section if not c.passed]
    print(f"verify: {n_checks - len(failed)}/{n_checks} checks passed", file=sys.stderr)
    for name, c in failed:
        print(f"verify: FAILED {name}: {c.check}: residual {c.residual:.3e}, "
              f"tolerance {c.tolerance:g}", file=sys.stderr)
    return [path], _EXIT_OK if suite.all_pass() else _EXIT_VERIFY_FAILED


def _load_spectrum_file(path: str) -> list:
    """JSON list of eigenvalues, each a finite number or an [re, im] pair of them."""
    data = _read_json(path, "spectrum file")
    if not isinstance(data, list) or len(data) < 2:
        raise ConfigError("spectrum file must hold a list of two or more eigenvalues")
    energies = []
    for item in data:
        parts = item if isinstance(item, list) and len(item) == 2 else [item]
        # no bool, NaN, infinity or integer past the float range
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and abs(v) <= sys.float_info.max for v in parts):
            raise ConfigError(f"bad spectrum entry {item!r}: expected a finite number or [re, im]")
        energies.append(complex(*parts))
    return energies


def _cmd_gk(cfg: RunConfig) -> tuple:
    """build a bicoherent state pair and its reports"""
    if cfg.model is None:
        raise ConfigError("gk needs --model (a registry entry with eigenfamilies)")
    grid = cfg.grid()
    file_energies = None
    if cfg.spectrum_file is not None:
        # the file fixes both the eigenvalues and the basis truncation
        file_energies = _load_spectrum_file(cfg.spectrum_file)
        cfg.n_terms = len(file_energies)
    m = get_model(cfg.model, **cfg.bind)
    if m.phi1 is None or m.psi1 is None or m.energy is None:
        raise ConfigError(
            f"model {cfg.model!r} does not provide both eigenfamilies and a spectrum")
    if cfg.n_terms < 2:
        raise ConfigError("need at least two basis terms")
    energy, name, params, notes = m.energy, m.name, m.params, list(m.notes)
    s = (spectrum_from_formula(energy, cfg.n_terms) if file_energies is None
         else build_spectrum(file_energies))
    try:
        phi_state, psi_state, domain, _, _, rep = state_pair(
            s, (m.phi1(n, grid) for n in range(cfg.n_terms)),
            (m.psi1(n, grid) for n in range(cfg.n_terms)),
            cfg.j, cfg.gamma, cfg.tolerances.get("state", 1e-8), cfg.n_terms)
    except RepresentationError as e:
        raise GKError("a family exceeds double range on this grid, so its norm growth "
                      f"cannot be certified: {e}") from e
    del m  # the generators' per-grid buffers are not needed past this point
    state, partner = ((phi_state, psi_state) if cfg.family == "phi"
                      else (psi_state, phi_state))

    action_value, action_note = None, None
    try:
        action_value = action_identity(phi_state, psi_state)
    except GKError as e:
        action_note = str(e)

    # the curve depends only on the spectrum, so extend it past the basis
    # when a level formula is available; a file spectrum is all there is
    n_curve = max(cfg.n_terms, 60) if file_energies is None else cfg.n_terms
    curve_s = s if n_curve == cfg.n_terms else spectrum_from_formula(energy, n_curve)
    j_upper = cfg.j_max
    if j_upper is None:
        j_upper = min(domain.j_min if math.isfinite(domain.j_min) else 10.0, 10.0)
    curve, curve_note = [], None
    for jv in np.linspace(0.0, j_upper, 101):
        try:
            curve.append((jv, normalization_K(curve_s, jv)))
        except GKError as e:
            curve_note = f"curve stops at J={jv:.6g}: {e}"
            break
    curve_path = _write_table(os.path.join(cfg.out, "gk-kcurve.csv"), ["J", "K"],
                              list(np.array(curve, dtype=float).reshape(-1, 2).T))

    res_header = ["stage", "gamma_limit", "j_max", "n_trunc",
                  "value_re", "value_im", "abs_error", "rel_error"]
    stages, points, res_note = [], [], None
    if rep is None:
        res_note = ("no closed-form action density for this spectrum; "
                    "the overcompleteness trace is skipped")
    else:
        for stage, trace in (("gamma", rep.gamma_trace), ("j", rep.j_trace), ("n", rep.n_trace)):
            stages.extend([stage] * len(trace))
            points.extend(trace)
    nums = np.array([(p.gamma_limit, p.j_max, p.value.real, p.value.imag, p.abs_error)
                     for p in points], dtype=float).reshape(-1, 5).T
    res_path = _write_table(os.path.join(cfg.out, "gk-resolution.csv"), res_header, [
        stages, nums[0], nums[1], [str(p.n_trunc) for p in points], *nums[2:],
        ["" if p.rel_error is None else _fmt(p.rel_error) for p in points],
    ])

    report = {
        "model": name,
        "params": params,
        "grid": {"L": grid.half_width, "N": grid.n_points},
        "state": state.payload(),
        "partner": partner.payload(),
        "domain": {
            "j_min": domain.j_min,
            "radius": domain.radius,
            "j_phi": domain.j_phi,
            "j_psi": domain.j_psi,
            "growth_phi": {"a": domain.a_phi, "r": domain.r_phi, "m_limit": domain.m_phi_limit},
            "growth_psi": {"a": domain.a_psi, "r": domain.r_psi, "m_limit": domain.m_psi_limit},
            "delta_e_value": domain.delta_e_value,
            "delta_e_ok": domain.delta_e_ok,
            "notes": list(domain.notes),
        },
        "values": {
            "pair_norm_coefficients": pair_norm(phi_state, psi_state),
            "pair_norm_grid": inner(phi_state.function, psi_state.function),
            "action_identity": action_value,
            "action_note": action_note,
            "lowering_defect": lowering_defect(state),
        },
        "spectrum": {
            "source": "file" if file_energies is not None else "formula",
            "file": None if cfg.spectrum_file is None else os.path.basename(cfg.spectrum_file),
            "n_terms": cfg.n_terms,
        },
        "k_curve": {"file": os.path.basename(curve_path), "j_max": j_upper, "n_terms": n_curve,
                    "note": curve_note},
        "resolution": {"file": os.path.basename(res_path), "solved": rep is not None,
                       "density": moment_density(s).label, "note": res_note},
        "notes": notes,
    }
    return [_write_json(os.path.join(cfg.out, "gk-state.json"), report), curve_path,
            res_path], _EXIT_OK


def _cmd_bs_classify(cfg: RunConfig) -> tuple:
    """square-integrability table of the rate family"""
    grid = cfg.grid() if cfg.numeric else None
    header = ["r", "phi0_1", "phi0_2", "psi0_1", "psi0_2"] + ["numeric_agrees"] * cfg.numeric
    rows = []
    for r in cfg.r_values:
        row_obj = bs_classification(r)
        row = list(row_obj.flags())
        if cfg.numeric:
            m = get_model("black-scholes", r=r, v0=cfg.bind.get("v0", 1.0))
            row.append(bs_numeric_flags(m, grid).flags() == row_obj.flags())
        rows.append(row)
    columns = [np.array(cfg.r_values, dtype=float)]
    columns.extend([row[k] for row in rows] for k in range(len(header) - 1))
    return [_emit_table(cfg, "bs-classification", header, columns)], _EXIT_OK


def _cmd_models_list(cfg: RunConfig) -> tuple:
    """print the model registry as JSON"""
    print(json.dumps(_jsonable(models_list()), indent=2, sort_keys=True))
    return [], _EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

_COMMANDS = {  # each returns (paths written, exit code)
    "potentials": _cmd_potentials,
    "vacua": _cmd_vacua,
    "verify": _cmd_verify,
    "gk": _cmd_gk,
    "bs-classify": _cmd_bs_classify,
    "models-list": _cmd_models_list,
}


def _build_parser() -> argparse.ArgumentParser:
    """A subparser per command, its help the function's docstring, taking
    ``--config`` and the ``_OPTIONS`` rows that name the command, if any."""
    parser = argparse.ArgumentParser(
        prog="susyq",
        description="superpotential pairs, their verification suites, and "
                    "action-labelled state families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        options = [opt for opt in _OPTIONS if command in opt.commands]
        if options:
            p.add_argument("--config", help="JSON config file; flags win per key")
        for opt in options:
            choices = {"choices": opt.check.choices} if hasattr(opt.check, "choices") else {}
            p.add_argument(opt.flag, help=opt.help, **choices, **opt.parse)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        if hasattr(args, "out"):  # the command reads --out
            try:
                os.makedirs(cfg.out, exist_ok=True)
            except OSError as e:
                raise ConfigError(
                    f"cannot create output directory {cfg.out!r}: {e.strerror}") from e
        paths, code = _COMMANDS[cfg.command](cfg)
        for path in paths:
            print(path)
        return code
    except PoleOnGridError as e:
        print(f"susyq: {e}", file=sys.stderr)
        return _EXIT_POLE
    except GKError as e:
        print(f"susyq: {e}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (ConfigError, DeformationError, ExprError, ModelError) as e:
        print(f"susyq: {e}", file=sys.stderr)
        return _EXIT_CONFIG
    except Exception as e:  # keep exit 1 reserved for verification failures
        traceback.print_exc(file=sys.stderr)
        print(f"susyq: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return _EXIT_CONFIG
