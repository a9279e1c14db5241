"""Run configuration files: sectioned ``key = value`` text.

The format is deliberately primitive so any tool can read and write it:
bracketed section headers ``[problem]``, ``[solver]``, ``[compare]``,
``[family]``; one ``key = value`` per line; ``#`` starts a comment;
UTF-8.  Every parse or validation failure reports the offending line
number.  A ``[problem]`` (or ``[compare]``) section may either spell out
the problem or name a built-in fixture with ``fixture = <name>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ExpressionError
from .fixtures import Fixture, get_fixture
from .rhsdsl import as_rhs, parse
from .solver import ProblemSpec, SolverConfig

__all__ = ["RunConfig", "parse_config", "load_config"]

_SECTIONS = ("problem", "solver", "compare", "family")

_PROBLEM_KEYS = {"fixture", "alpha", "T", "x0", "rhs", "M1", "M2", "M3"}
_SOLVER_KEYS = {"n", "tol", "max_iter", "theta", "force"}
_COMPARE_KEYS = _PROBLEM_KEYS | {"K_eta", "K_ml"}
_FAMILY_KEYS = {"anchors"}

_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs, parsed and validated.

    ``fixture`` (and ``compare_fixture``) are set when the corresponding
    section named a built-in problem, so commands can report against its
    ground truth.  ``k_eta`` / ``k_ml`` are ``None`` when the config did
    not supply them; commands estimate and label them in that case.
    """

    problem: ProblemSpec
    solver: SolverConfig
    fixture: Fixture | None = None
    compare: ProblemSpec | None = None
    compare_fixture: Fixture | None = None
    k_eta: float | None = None
    k_ml: float | None = None
    anchors: tuple[np.ndarray, ...] | None = None


class _Entry:
    __slots__ = ("value", "line")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line


def _split_sections(text: str) -> dict[str, dict[str, list[_Entry]]]:
    sections: dict[str, dict[str, list[_Entry]]] = {}
    current: dict[str, list[_Entry]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _SECTIONS),
                    lineno,
                )
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            current = {}
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value' or a [section] header", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        current.setdefault(key, []).append(_Entry(value, lineno))
    return sections


def _check_keys(section: str, table: dict[str, list[_Entry]], allowed: set[str]) -> None:
    for key, entries in table.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; expected one of "
                + ", ".join(sorted(allowed)),
                entries[0].line,
            )
        if key != "rhs" and len(entries) > 1:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", entries[1].line)


def _single(table: dict[str, list[_Entry]], key: str) -> _Entry | None:
    entries = table.get(key)
    return entries[0] if entries else None


def _require(section: str, table: dict[str, list[_Entry]], key: str) -> _Entry:
    entry = _single(table, key)
    if entry is None:
        raise ConfigError(f"[{section}] is missing required key {key!r}")
    return entry


def _float(entry: _Entry, key: str) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise ConfigError(f"{key} must be a real number, got {entry.value!r}", entry.line) from None


def _int(entry: _Entry, key: str) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {entry.value!r}", entry.line) from None


def _bool(entry: _Entry, key: str) -> bool:
    word = entry.value.lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ConfigError(f"{key} must be true or false, got {entry.value!r}", entry.line)


def _float_list(entry: _Entry, key: str) -> list[float]:
    items = [piece.strip() for piece in entry.value.split(",")]
    if any(not piece for piece in items):
        raise ConfigError(f"{key} has an empty element", entry.line)
    try:
        return [float(piece) for piece in items]
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated reals, got {entry.value!r}", entry.line) from None


def _checked(value: float, ok: bool, message: str, line: int) -> float:
    if not ok:
        raise ConfigError(message, line)
    return value


def _build_problem(
    section: str, table: dict[str, list[_Entry]], shared: tuple[float, float] | None
) -> tuple[ProblemSpec, Fixture | None]:
    """Build a ProblemSpec from a section; ``shared`` carries (alpha, T)
    for a compare section, which inherits them from the main problem."""
    fixture_entry = _single(table, "fixture")
    if fixture_entry is not None:
        extras = sorted(set(table) - {"fixture"})
        if extras:
            raise ConfigError(
                f"fixture cannot be combined with explicit keys ({', '.join(extras)})",
                fixture_entry.line,
            )
        try:
            fixture = get_fixture(fixture_entry.value)
        except DomainError as exc:
            raise ConfigError(str(exc), fixture_entry.line) from exc
        return fixture.spec, fixture

    if shared is None:
        alpha_entry = _require(section, table, "alpha")
        alpha = _float(alpha_entry, "alpha")
        _checked(alpha, 0.0 < alpha < 1.0, f"alpha must lie in (0,1), got {alpha}", alpha_entry.line)
        T_entry = _require(section, table, "T")
        T = _float(T_entry, "T")
        _checked(T, T > 0.0, f"T must be > 0, got {T}", T_entry.line)
    else:
        for key in ("alpha", "T"):
            entry = _single(table, key)
            if entry is not None:
                raise ConfigError(
                    f"[{section}] inherits {key} from [problem]; remove it", entry.line
                )
        alpha, T = shared

    x0_entry = _require(section, table, "x0")
    x0 = _float_list(x0_entry, "x0")

    rhs_entries = table.get("rhs")
    if not rhs_entries:
        raise ConfigError(f"[{section}] is missing required key 'rhs'")
    if len(rhs_entries) != len(x0):
        raise ConfigError(
            f"{len(x0)} x0 component(s) but {len(rhs_entries)} rhs line(s); "
            "give one rhs per component",
            rhs_entries[0].line,
        )
    exprs = []
    for entry in rhs_entries:
        try:
            exprs.append(parse(entry.value))
        except ExpressionError as exc:
            raise ConfigError(f"rhs: {exc}", entry.line) from exc

    m_entries = {key: _require(section, table, key) for key in ("M1", "M2", "M3")}
    M1 = _float(m_entries["M1"], "M1")
    _checked(M1, M1 >= 0.0, f"M1 must be >= 0, got {M1}", m_entries["M1"].line)
    M2 = _float(m_entries["M2"], "M2")
    _checked(M2, M2 >= 0.0, f"M2 must be >= 0, got {M2}", m_entries["M2"].line)
    M3 = _float(m_entries["M3"], "M3")
    _checked(M3, 0.0 <= M3 < 1.0, f"M3 must lie in [0,1), got {M3}", m_entries["M3"].line)

    spec = ProblemSpec(
        alpha=alpha, T=T, x0=np.array(x0), rhs=as_rhs(exprs), M1=M1, M2=M2, M3=M3
    )
    return spec, None


def _build_solver(table: dict[str, list[_Entry]]) -> SolverConfig:
    n_entry = _require("solver", table, "n")
    n = _int(n_entry, "n")
    _checked(n, n >= 2, f"n must be at least 2, got {n}", n_entry.line)

    tol = 1e-10
    tol_entry = _single(table, "tol")
    if tol_entry is not None:
        tol = _float(tol_entry, "tol")
        _checked(tol, tol > 0.0, f"tol must be > 0, got {tol}", tol_entry.line)

    max_iter = 200
    mi_entry = _single(table, "max_iter")
    if mi_entry is not None:
        max_iter = _int(mi_entry, "max_iter")
        _checked(max_iter, max_iter >= 1, f"max_iter must be >= 1, got {max_iter}", mi_entry.line)

    theta = None
    theta_entry = _single(table, "theta")
    if theta_entry is not None:
        theta = _float(theta_entry, "theta")
        _checked(theta, theta > 0.0, f"theta must be > 0, got {theta}", theta_entry.line)

    force = False
    force_entry = _single(table, "force")
    if force_entry is not None:
        force = _bool(force_entry, "force")

    return SolverConfig(n=n, tol=tol, max_iter=max_iter, theta_override=theta, force=force)


def _build_anchors(table: dict[str, list[_Entry]], dim: int) -> tuple[np.ndarray, ...]:
    entry = _require("family", table, "anchors")
    text = entry.value
    groups = [g.strip() for g in text.split(";")] if ";" in text else None
    if groups is None and dim == 1:
        values = _float_list(entry, "anchors")
        return tuple(np.array([v]) for v in values)
    if groups is None:
        groups = [text]
    anchors = []
    for group in groups:
        if not group:
            raise ConfigError("anchors has an empty vector", entry.line)
        parts = [p.strip() for p in group.split(",")]
        try:
            vec = np.array([float(p) for p in parts])
        except ValueError:
            raise ConfigError(f"anchor {group!r} is not a vector of reals", entry.line) from None
        if vec.size != dim:
            raise ConfigError(
                f"anchor {group!r} has {vec.size} component(s), problem has {dim}",
                entry.line,
            )
        anchors.append(vec)
    if not anchors:
        raise ConfigError("anchors must be nonempty", entry.line)
    return tuple(anchors)


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text.

    Args:
        text: the file contents.

    Returns:
        A validated :class:`RunConfig`.

    Raises:
        ConfigError: naming the offending line where one exists.
    """
    sections = _split_sections(text)
    if "problem" not in sections:
        raise ConfigError("missing required section [problem]")
    if "solver" not in sections:
        raise ConfigError("missing required section [solver]")
    _check_keys("problem", sections["problem"], _PROBLEM_KEYS)
    _check_keys("solver", sections["solver"], _SOLVER_KEYS)

    try:
        problem, fixture = _build_problem("problem", sections["problem"], shared=None)
        solver = _build_solver(sections["solver"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    compare = compare_fixture = None
    k_eta = k_ml = None
    if "compare" in sections:
        table = sections["compare"]
        _check_keys("compare", table, _COMPARE_KEYS)
        entry = _single(table, "K_eta")
        if entry is not None:
            k_eta = _float(entry, "K_eta")
            _checked(k_eta, k_eta >= 0.0, f"K_eta must be >= 0, got {k_eta}", entry.line)
        entry = _single(table, "K_ml")
        if entry is not None:
            k_ml = _float(entry, "K_ml")
            _checked(k_ml, k_ml >= 0.0, f"K_ml must be >= 0, got {k_ml}", entry.line)
        bare = {k: v for k, v in table.items() if k not in ("K_eta", "K_ml")}
        try:
            compare, compare_fixture = _build_problem(
                "compare", bare, shared=(problem.alpha, problem.T)
            )
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if compare.alpha != problem.alpha or compare.T != problem.T:
            raise ConfigError(
                "compare fixture must share alpha and T with the problem"
            )
        if compare.dim != problem.dim:
            raise ConfigError(
                f"compare problem has dimension {compare.dim}, problem has {problem.dim}"
            )

    anchors = None
    if "family" in sections:
        _check_keys("family", sections["family"], _FAMILY_KEYS)
        anchors = _build_anchors(sections["family"], problem.dim)

    return RunConfig(
        problem=problem,
        solver=solver,
        fixture=fixture,
        compare=compare,
        compare_fixture=compare_fixture,
        k_eta=k_eta,
        k_ml=k_ml,
        anchors=anchors,
    )


def load_config(path: str) -> RunConfig:
    """Read and parse a config file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_config(text)
