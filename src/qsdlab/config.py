"""Config files: flat INI-style documents with typed, validated sections.

A run is described by at most seven sections -- ``[model]``, ``[extensions]``,
``[truncation]``, ``[solver]``, ``[simulation]``, ``[check]``, ``[converge]``.
Each ``section.key`` has one entry in ``_SCHEMA`` giving the attribute it
fills, its parser, its bound, its default and whether it is required; the
loader, the command-line overrides and the summary echo all read that entry.
Unknown sections or keys are rejected so a typo cannot silently fall back to
a default.  Defaults that do get applied are recorded in
:attr:`ConfigDocument.defaults_applied` and echoed into run summaries.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

_FAMILIES = ("constant", "power-law", "tabulated")


@dataclass
class ConfigDocument:
    """Validated contents of a run configuration.

    Every field but ``defaults_applied`` is filled by its schema entry; a key
    that is absent and has no default is ``None``.
    """

    r: int
    gamma: float
    family: str
    b: list | None
    d: list | None
    c: list | None  # list of rows
    beta1: float | None
    beta2: float | None
    b_table: list | None
    d_table: list | None
    c_table: list | None
    catastrophe: tuple | None  # (kind, coef[, exponent])
    multibirth: dict | None  # litter vector tuple -> probability
    truncation_n: int
    tol: float
    max_iter: int
    seed: int
    trajectories: int
    particles: int
    t_max: float
    n_check: int
    eps: float | None
    c_r: float | None
    initials: list | None
    t_grid: tuple  # (start, stop, step)
    defaults_applied: dict

    def time_grid(self) -> np.ndarray:
        start, stop, step = self.t_grid
        return np.arange(start, stop + 0.5 * step, step)

    def override(self, name, value):
        """Set key ``name`` (``"section.key"``) through its parser and bound."""
        value = _read(name, value, self.r)
        setattr(self, _SCHEMA[name].attr, value)
        return value

    def echo(self) -> dict:
        """Effective settings as a flat dict, for run summaries."""
        out = {}
        for name, spec in _SCHEMA.items():
            value = getattr(self, spec.attr)
            if value is not None:
                out[name] = spec.echo(value)
        out["defaults_applied"] = dict(self.defaults_applied)
        return out


# ---------------------------------------------------------------------------
# parsers: (raw, r) -> value, raising ValueError with the problem
# ---------------------------------------------------------------------------

def _number(raw, kind=float):
    """One number of type ``kind``; non-finite values are rejected."""
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"expected {noun}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


_int = lambda raw, r: _number(raw, int)
_float = lambda raw, r: _number(raw)
_word = lambda raw, r: raw


def _floats(raw, r=None):
    """Comma-separated numbers: exactly ``r`` of them, or any count."""
    values = [_number(tok) for tok in raw.split(",") if tok.strip()]
    if r is not None and len(values) != r:
        raise ValueError(f"expected {r} entries, got {len(values)}")
    return values


_table = lambda raw, r: _floats(raw)


def _matrix(raw, r):
    rows = [row for row in raw.split(";") if row.strip()]
    if len(rows) != r:
        raise ValueError(f"expected {r} rows separated by ';', got {len(rows)}")
    return [_floats(row, r) for row in rows]


def _coords(token, r, low):
    """An ``r``-tuple of integers ``>= low``, with or without parentheses."""
    token = token.strip()
    if token.startswith("(") and token.endswith(")"):
        token = token[1:-1]
    parts = [p for p in token.split(",") if p.strip()]
    if len(parts) != r:
        raise ValueError(f"{token!r} has {len(parts)} coordinates, expected {r}")
    coords = tuple(_number(p, int) for p in parts)
    if min(coords) < low:
        raise ValueError(f"{token!r} needs every coordinate >= {low}")
    return coords


def _states(raw, r):
    return [_coords(tok, r, 1) for tok in raw.split(";") if tok.strip()]


def _catastrophe(raw, r):
    kind, *numbers = raw.split() or [""]
    if kind == "none":
        return None
    if kind not in ("constant", "linear", "log", "power"):
        raise ValueError(f"unknown catastrophe form {kind!r} "
                         "(expected none/constant/linear/log/power)")
    if len(numbers) != (2 if kind == "power" else 1):
        raise ValueError(f"{kind} catastrophe takes " + (
            "a coefficient and an exponent" if kind == "power"
            else "exactly one coefficient"))
    return (kind, *map(_number, numbers))


def _multibirth(raw, r):
    if raw.strip() == "none":
        return None
    law = {}
    # entries look like "(k1,...,kr):p" or, for r=1, just "k:p", separated
    # by ";" or by the commas outside parentheses
    entries = raw.split(";") if ";" in raw else re.split(r",(?![^()]*\))", raw)
    for entry in entries:
        entry = entry.strip()
        if not entry:
            continue
        if ":" not in entry:
            raise ValueError(f"entry {entry!r} is not of the form k:probability")
        k_raw, _, p_raw = entry.rpartition(":")
        k = _coords(k_raw, r, 0)
        if sum(k) < 1:
            raise ValueError(f"litter {k_raw!r} must add at least one individual")
        law[k] = _number(p_raw)
    return law


def _grid(raw, r):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {raw!r}")
    return tuple(map(_number, parts))


# ---------------------------------------------------------------------------
# the schema
# ---------------------------------------------------------------------------

def _plain(value):
    """A parsed value as JSON data: tuples and lists become lists."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class _Key:
    """One config key: the attribute it fills, how to read it, and its echo.

    ``bound(value, r)`` returns True or the message of the violation; it is
    not applied to ``None`` (an absent key, or an extension set to "none").
    ``default`` is written as in a file and parsed like one.
    """

    attr: str
    parse: Callable
    bound: Callable = lambda value, r: True
    default: str | None = None
    required: bool = False
    echo: Callable = _plain


def _at_least(low):
    return lambda value, r: value >= low or f"must be >= {low}, got {value}"


def _positive(value, r):
    return value > 0 or f"must be > 0, got {value}"


def _each(test, message):
    return lambda values, r: all(map(test, np.ravel(values))) or message


_POSITIVE_ENTRIES = _each(lambda x: x > 0, "every entry must be > 0")
_NONNEGATIVE_ENTRIES = _each(lambda x: x >= 0, "every entry must be >= 0")


def _distribution(law, r):
    total = sum(law.values())
    if min(law.values(), default=0.0) < 0:
        return "litter probabilities must be >= 0"
    return abs(total - 1.0) <= 1e-12 or (
        f"litter probabilities sum to {total!r}, expected 1 within 1e-12")


#: Most points a ``t_grid`` may have; the example configs have 201 to 401.
_GRID_POINTS = 100_000


def _time_grid(grid, r):
    start, stop, step = grid
    if not (0 <= start < stop and step > 0):
        return "need 0 <= start < stop and step > 0"
    # ``time_grid()`` has ceil(points) points; inf when step underflows.
    points = (stop + 0.5 * step - start) / step
    return points <= _GRID_POINTS or (
        f"about {points:.4g} points, more than the {_GRID_POINTS} allowed")


_SCHEMA = {
    "model.r": _Key("r", _int, _at_least(1), required=True),
    "model.gamma": _Key("gamma", _float, _positive, required=True),
    "model.family": _Key(
        "family", _word, lambda v, r: v in _FAMILIES
        or f"must be one of {_FAMILIES}, got {v!r}", required=True),
    "model.b": _Key("b", _floats, _POSITIVE_ENTRIES),
    "model.d": _Key("d", _floats, _NONNEGATIVE_ENTRIES),
    "model.c": _Key("c", _matrix, _NONNEGATIVE_ENTRIES),
    "model.beta1": _Key("beta1", _float, _at_least(0)),
    "model.beta2": _Key(
        "beta2", _float, lambda v, r: v < 1 or f"must be < 1, got {v}"),
    "model.b_table": _Key("b_table", _table, _POSITIVE_ENTRIES),
    "model.d_table": _Key("d_table", _table, _NONNEGATIVE_ENTRIES),
    "model.c_table": _Key("c_table", _table, _NONNEGATIVE_ENTRIES),
    "extensions.catastrophe": _Key(
        "catastrophe", _catastrophe,
        lambda v, r: v[1] >= 0 or "catastrophe coefficient must be >= 0",
        "none", echo=lambda v: " ".join(str(x) for x in v)),
    "extensions.multibirth": _Key(
        "multibirth", _multibirth, _distribution,
        "none", echo=lambda law: {",".join(str(x) for x in k): p
                                  for k, p in law.items()}),
    "truncation.n": _Key(
        "truncation_n", _int, lambda v, r: v >= r
        or f"must be >= r = {r} so the space is non-empty", required=True),
    "solver.tol": _Key("tol", _float, _positive, "1e-12"),
    "solver.max_iter": _Key("max_iter", _int, _at_least(1), "1000000"),
    "simulation.seed": _Key(
        "seed", _int, lambda v, r: 0 <= v < 2 ** 64 or "must fit in 64 bits", "0"),
    "simulation.trajectories": _Key("trajectories", _int, _at_least(1), "10000"),
    "simulation.particles": _Key("particles", _int, _at_least(2), "1000"),
    "simulation.t_max": _Key("t_max", _float, _at_least(0), "10.0"),
    "check.n_check": _Key(
        "n_check", _int, lambda v, r: v >= r or f"must be >= r = {r}", "10000"),
    "check.eps": _Key("eps", _float, _positive),
    "check.c_r": _Key("c_r", _float, _positive),
    "converge.initials": _Key(
        "initials", _states,
        lambda v, r: len(v) > 0 or "at least one initial state is required"),
    "converge.t_grid": _Key("t_grid", _grid, _time_grid, "0:20:0.05"),
}


def _read(name, raw, r):
    """Parse ``raw`` for key ``name`` and check it against the key's bound."""
    spec = _SCHEMA[name]
    try:
        value = spec.parse(raw, r)
        verdict = True if value is None else spec.bound(value, r)
        if verdict is not True:
            raise ValueError(verdict)
    except ValueError as exc:
        section, key = name.split(".")
        raise ValidationError(f"[{section}] {key}: {exc}") from None
    return value


def _fail(section, key, message):
    raise ValidationError(f"[{section}] {key}: {message}")


def load_config(path) -> ConfigDocument:
    """Parse and validate a configuration file.

    Raises :class:`ValidationError` naming the offending section and key on
    any schema violation; parse errors keep configparser's line numbers.
    Every key written in the file is parsed and checked, whether or not the
    model family reads it.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse {path}: {exc}") from exc

    sections = {name.split(".")[0] for name in _SCHEMA}
    for section in parser.sections():
        if section not in sections:
            raise ValidationError(f"unknown section [{section}]")
        for key in parser[section]:
            if f"{section}.{key}" not in _SCHEMA:
                raise ValidationError(f"[{section}] {key}: unknown key")

    values, applied = {}, {}
    for name, spec in _SCHEMA.items():
        section, key = name.split(".")
        written = parser.get(section, key, fallback=None)
        raw = spec.default if written is None else written
        if raw is None and spec.required:
            _fail(section, key, "required key is missing")
        value = values[spec.attr] = (None if raw is None
                                     else _read(name, raw, values.get("r")))
        # The "none" default of an absent [extensions] section turns nothing
        # on, so it is not reported as applied.
        if written is None and raw is not None and (
                value is not None or parser.has_section(section)):
            applied[name] = raw
    doc = ConfigDocument(**values, defaults_applied=applied)

    family = doc.family
    if family == "tabulated" and doc.r != 1:
        _fail("model", "family",
              "tabulated models with r >= 2 must be built through the API")
    needed = {"constant": ("b", "d", "c"),
              "power-law": ("b", "d", "c", "beta1", "beta2"),
              "tabulated": ("b_table", "d_table", "c_table")}[family]
    for key in needed:
        if getattr(doc, key) is None:
            _fail("model", key, f"required for the {family} family")
    if family == "tabulated":
        lengths = {len(doc.b_table), len(doc.d_table), len(doc.c_table)}
        if len(lengths) != 1 or 0 in lengths:
            _fail("model", "b_table", "tables must be non-empty and equal length")
    return doc
