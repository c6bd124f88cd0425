"""Config files: flat INI-style documents with typed, validated sections.

A run is described by at most seven sections -- ``[model]``, ``[extensions]``,
``[truncation]``, ``[solver]``, ``[simulation]``, ``[check]``, ``[converge]``.
Every key is checked against the schema below; unknown sections or keys are
rejected so a typo cannot silently fall back to a default.  Defaults that do
get applied are recorded in :attr:`ConfigDocument.defaults_applied` and echoed
into run summaries.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# schema: section -> key -> (required, default-as-string-or-None)
_SCHEMA = {
    "model": {
        "r": (True, None),
        "gamma": (True, None),
        "family": (True, None),
        "b": (False, None),
        "d": (False, None),
        "c": (False, None),
        "beta1": (False, None),
        "beta2": (False, None),
        "b_table": (False, None),
        "d_table": (False, None),
        "c_table": (False, None),
    },
    "extensions": {
        "catastrophe": (False, "none"),
        "multibirth": (False, "none"),
    },
    "truncation": {
        "n": (True, None),
    },
    "solver": {
        "tol": (False, "1e-12"),
        "max_iter": (False, "1000000"),
    },
    "simulation": {
        "seed": (False, "0"),
        "trajectories": (False, "10000"),
        "particles": (False, "1000"),
        "t_max": (False, "10.0"),
    },
    "check": {
        "n_check": (False, "10000"),
        "eps": (False, None),
        "c_r": (False, None),
    },
    "converge": {
        "initials": (False, None),
        "t_grid": (False, "0:20:0.05"),
    },
}

_FAMILIES = ("constant", "power-law", "tabulated")


@dataclass
class ConfigDocument:
    """Validated contents of a run configuration."""

    r: int
    gamma: float
    family: str
    b: list | None = None
    d: list | None = None
    c: list | None = None  # list of rows
    beta1: float | None = None
    beta2: float | None = None
    b_table: list | None = None
    d_table: list | None = None
    c_table: list | None = None
    catastrophe: tuple | None = None  # (kind, coef[, exponent])
    multibirth: dict | None = None  # litter vector tuple -> probability
    truncation_n: int = 0
    tol: float = 1e-12
    max_iter: int = 1_000_000
    seed: int = 0
    trajectories: int = 10_000
    particles: int = 1_000
    t_max: float = 10.0
    n_check: int = 10_000
    eps: float | None = None
    c_r: float | None = None
    initials: list | None = None
    t_grid: tuple = (0.0, 20.0, 0.05)
    defaults_applied: dict = field(default_factory=dict)

    def time_grid(self) -> np.ndarray:
        start, stop, step = self.t_grid
        return np.arange(start, stop + 0.5 * step, step)

    def echo(self) -> dict:
        """Effective settings as a flat dict, for run summaries."""
        out = {
            "model.r": self.r,
            "model.gamma": self.gamma,
            "model.family": self.family,
            "truncation.n": self.truncation_n,
            "solver.tol": self.tol,
            "solver.max_iter": self.max_iter,
            "simulation.seed": self.seed,
            "simulation.trajectories": self.trajectories,
            "simulation.particles": self.particles,
            "simulation.t_max": self.t_max,
            "check.n_check": self.n_check,
        }
        if self.b is not None:
            out["model.b"] = list(self.b)
        if self.d is not None:
            out["model.d"] = list(self.d)
        if self.c is not None:
            out["model.c"] = [list(row) for row in self.c]
        for key in ("b_table", "d_table", "c_table"):
            table = getattr(self, key)
            if table is not None:
                out[f"model.{key}"] = list(table)
        for key in ("beta1", "beta2", "eps", "c_r"):
            val = getattr(self, key)
            if val is not None:
                out[f"check.{key}" if key in ("eps", "c_r") else f"model.{key}"] = val
        if self.catastrophe is not None:
            out["extensions.catastrophe"] = " ".join(str(x) for x in self.catastrophe)
        if self.multibirth is not None:
            out["extensions.multibirth"] = {
                ",".join(str(x) for x in k): p for k, p in self.multibirth.items()
            }
        if self.initials is not None:
            out["converge.initials"] = [list(x) for x in self.initials]
        out["converge.t_grid"] = list(self.t_grid)
        out["defaults_applied"] = dict(self.defaults_applied)
        return out


def _fail(section, key, message):
    raise ValidationError(f"[{section}] {key}: {message}")


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        _fail(section, key, f"expected a number, got {raw!r}")


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, f"expected an integer, got {raw!r}")


def _parse_float_list(section, key, raw, expected_len=None):
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        _fail(section, key, f"expected comma-separated numbers, got {raw!r}")
    if expected_len is not None and len(values) != expected_len:
        _fail(section, key, f"expected {expected_len} entries, got {len(values)}")
    return values


def _parse_matrix(section, key, raw, r):
    rows = [row for row in raw.split(";") if row.strip()]
    if len(rows) != r:
        _fail(section, key, f"expected {r} rows separated by ';', got {len(rows)}")
    return [_parse_float_list(section, key, row, expected_len=r) for row in rows]


def _parse_state(section, key, token, r):
    token = token.strip()
    if token.startswith("(") and token.endswith(")"):
        token = token[1:-1]
    parts = [p for p in token.split(",") if p.strip()]
    if len(parts) != r:
        _fail(section, key, f"state {token!r} has {len(parts)} coordinates, expected {r}")
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        _fail(section, key, f"state {token!r} has non-integer coordinates")
    if any(x < 1 for x in coords):
        _fail(section, key, f"state {token!r} is not interior (all coordinates must be >= 1)")
    return coords


def _parse_catastrophe(section, key, raw):
    tokens = raw.split()
    if tokens[0] == "none":
        return None
    kind = tokens[0]
    if kind in ("constant", "linear", "log"):
        if len(tokens) != 2:
            _fail(section, key, f"{kind} catastrophe takes exactly one coefficient")
        coef = _parse_float(section, key, tokens[1])
        if coef < 0:
            _fail(section, key, "catastrophe coefficient must be >= 0")
        return (kind, coef)
    if kind == "power":
        if len(tokens) != 3:
            _fail(section, key, "power catastrophe takes a coefficient and an exponent")
        coef = _parse_float(section, key, tokens[1])
        expo = _parse_float(section, key, tokens[2])
        if coef < 0:
            _fail(section, key, "catastrophe coefficient must be >= 0")
        return (kind, coef, expo)
    _fail(section, key, f"unknown catastrophe form {kind!r} "
                        "(expected none/constant/linear/log/power)")


def _parse_litter_vector(section, key, token, r):
    token = token.strip()
    if token.startswith("(") and token.endswith(")"):
        token = token[1:-1]
    parts = [p for p in token.split(",") if p.strip()]
    if len(parts) != r:
        _fail(section, key, f"litter {token!r} has {len(parts)} coordinates, expected {r}")
    try:
        k = tuple(int(p) for p in parts)
    except ValueError:
        _fail(section, key, f"litter {token!r} has non-integer coordinates")
    if any(x < 0 for x in k):
        _fail(section, key, f"litter {token!r} has a negative component")
    return k


def _parse_multibirth(section, key, raw, r):
    if raw.strip() == "none":
        return None
    law = {}
    # entries look like "(k1,...,kr):p" or, for r=1, just "k:p"
    for entry in raw.split(";") if ";" in raw else _split_entries(raw):
        entry = entry.strip()
        if not entry:
            continue
        if ":" not in entry:
            _fail(section, key, f"entry {entry!r} is not of the form k:probability")
        k_raw, _, p_raw = entry.rpartition(":")
        k = _parse_litter_vector(section, key, k_raw, r)
        if sum(k) < 1:
            _fail(section, key, f"litter {k_raw!r} must add at least one individual")
        law[k] = _parse_float(section, key, p_raw)
    total = sum(law.values())
    if abs(total - 1.0) > 1e-12:
        _fail(section, key, f"litter probabilities sum to {total!r}, expected 1 within 1e-12")
    return law


def _split_entries(raw):
    # comma-separated entries where keys may themselves contain commas inside
    # parentheses: split at commas that sit at parenthesis depth zero
    entries, depth, cur = [], 0, []
    for ch in raw:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            entries.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    entries.append("".join(cur))
    return entries


def load_config(path) -> ConfigDocument:
    """Parse and validate a configuration file.

    Raises :class:`ValidationError` naming the offending section and key on
    any schema violation; parse errors keep configparser's line numbers.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError:
        raise
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse {path}: {exc}") from exc

    defaults_applied = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ValidationError(f"[{section}] {key}: unknown key")

    def get(section, key):
        required, default = _SCHEMA[section][key]
        if parser.has_option(section, key):
            return parser.get(section, key)
        if required:
            raise ValidationError(f"[{section}] {key}: required key is missing")
        if default is not None:
            defaults_applied[f"{section}.{key}"] = default
        return default

    if not parser.has_section("model"):
        raise ValidationError("missing required section [model]")
    if not parser.has_section("truncation"):
        raise ValidationError("missing required section [truncation]")

    r = _parse_int("model", "r", get("model", "r"))
    if r < 1:
        _fail("model", "r", "must be >= 1")
    gamma = _parse_float("model", "gamma", get("model", "gamma"))
    if not gamma > 0:
        _fail("model", "gamma", f"must be > 0, got {gamma}")
    family = get("model", "family")
    if family not in _FAMILIES:
        _fail("model", "family", f"must be one of {_FAMILIES}, got {family!r}")

    doc = ConfigDocument(r=r, gamma=gamma, family=family,
                         defaults_applied=defaults_applied)

    if family in ("constant", "power-law"):
        for key in ("b", "d", "c"):
            if get("model", key) is None:
                _fail("model", key, f"required for the {family} family")
        doc.b = _parse_float_list("model", "b", get("model", "b"), expected_len=r)
        doc.d = _parse_float_list("model", "d", get("model", "d"), expected_len=r)
        doc.c = _parse_matrix("model", "c", get("model", "c"), r)
    else:  # tabulated
        if r != 1:
            _fail("model", "family",
                  "tabulated models with r >= 2 must be built through the API")
        for key in ("b_table", "d_table", "c_table"):
            if get("model", key) is None:
                _fail("model", key, "required for the tabulated family")
        doc.b_table = _parse_float_list("model", "b_table", get("model", "b_table"))
        doc.d_table = _parse_float_list("model", "d_table", get("model", "d_table"))
        doc.c_table = _parse_float_list("model", "c_table", get("model", "c_table"))
        lengths = {len(doc.b_table), len(doc.d_table), len(doc.c_table)}
        if len(lengths) != 1 or 0 in lengths:
            _fail("model", "b_table", "tables must be non-empty and equal length")

    raw_beta1 = get("model", "beta1")
    raw_beta2 = get("model", "beta2")
    if family == "power-law" and (raw_beta1 is None or raw_beta2 is None):
        _fail("model", "beta1", "power-law family requires beta1 and beta2")
    if raw_beta1 is not None:
        doc.beta1 = _parse_float("model", "beta1", raw_beta1)
        if doc.beta1 < 0:
            _fail("model", "beta1", f"must be >= 0, got {doc.beta1}")
    if raw_beta2 is not None:
        doc.beta2 = _parse_float("model", "beta2", raw_beta2)
        if not doc.beta2 < 1:
            _fail("model", "beta2", f"must be < 1, got {doc.beta2}")

    if parser.has_section("extensions"):
        doc.catastrophe = _parse_catastrophe(
            "extensions", "catastrophe", get("extensions", "catastrophe"))
        doc.multibirth = _parse_multibirth(
            "extensions", "multibirth", get("extensions", "multibirth"), r)

    doc.truncation_n = _parse_int("truncation", "n", get("truncation", "n"))
    if doc.truncation_n < r:
        _fail("truncation", "n", f"must be >= r = {r} so the space is non-empty")

    doc.tol = _parse_float("solver", "tol", get("solver", "tol"))
    if not (doc.tol > 0 and np.isfinite(doc.tol)):
        _fail("solver", "tol", f"must be a finite number > 0, got {doc.tol}")
    doc.max_iter = _parse_int("solver", "max_iter", get("solver", "max_iter"))
    if doc.max_iter < 1:
        _fail("solver", "max_iter", "must be >= 1")

    doc.seed = _parse_int("simulation", "seed", get("simulation", "seed"))
    if not 0 <= doc.seed < 2 ** 64:
        _fail("simulation", "seed", "must fit in 64 bits")
    doc.trajectories = _parse_int("simulation", "trajectories",
                                  get("simulation", "trajectories"))
    if doc.trajectories < 1:
        _fail("simulation", "trajectories", "must be >= 1")
    doc.particles = _parse_int("simulation", "particles", get("simulation", "particles"))
    if doc.particles < 2:
        _fail("simulation", "particles", "must be >= 2")
    doc.t_max = _parse_float("simulation", "t_max", get("simulation", "t_max"))
    if doc.t_max < 0:
        _fail("simulation", "t_max", "must be >= 0")

    doc.n_check = _parse_int("check", "n_check", get("check", "n_check"))
    if doc.n_check < r:
        _fail("check", "n_check", "must be >= r")
    raw_eps = get("check", "eps")
    if raw_eps is not None:
        doc.eps = _parse_float("check", "eps", raw_eps)
        if not doc.eps > 0:
            _fail("check", "eps", "must be > 0")
    raw_cr = get("check", "c_r")
    if raw_cr is not None:
        doc.c_r = _parse_float("check", "c_r", raw_cr)
        if not doc.c_r > 0:
            _fail("check", "c_r", "must be > 0")

    raw_initials = get("converge", "initials")
    if raw_initials is not None:
        doc.initials = [_parse_state("converge", "initials", tok, r)
                        for tok in raw_initials.split(";") if tok.strip()]
        if not doc.initials:
            _fail("converge", "initials", "at least one initial state is required")
    grid_raw = get("converge", "t_grid")
    parts = grid_raw.split(":")
    if len(parts) != 3:
        _fail("converge", "t_grid", f"expected start:stop:step, got {grid_raw!r}")
    start = _parse_float("converge", "t_grid", parts[0])
    stop = _parse_float("converge", "t_grid", parts[1])
    step = _parse_float("converge", "t_grid", parts[2])
    if start < 0 or stop <= start or step <= 0:
        _fail("converge", "t_grid", "need 0 <= start < stop and step > 0")
    doc.t_grid = (start, stop, step)

    return doc
