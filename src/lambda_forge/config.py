"""Run configuration: a flat key = value text file.

Example (curve backend)::

    backend = curve
    curve_a_invariants = 0, -1, 1, -10, -20
    conductor = 11
    p = 7
    lambda_g = 0
    mu_zero = true
    surjective_mod_p = true
    optimal_level_asserted = true

Table backend replaces the curve keys with ``table_path`` (relative paths
resolve against the config file) and a ``level`` key.  A key of the other
backend is refused; ``level`` is read by both, and a curve's must equal its
conductor.  ``#`` starts a comment.  Thresholds are module constants, not
config keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .curves import CurveModel
from .errors import ConfigError
from .forms import CoefficientTable, FormContext, load_coefficients

_REQUIRED_COMMON = (
    "backend", "p", "lambda_g", "mu_zero", "surjective_mod_p", "optimal_level_asserted",
)
_BACKEND_KEYS = {  # the keys only one backend reads
    "curve": ("curve_a_invariants", "conductor", "discriminant"),
    "table": ("table_path",),
}
_KNOWN_KEYS = frozenset(_REQUIRED_COMMON + ("level",) + sum(_BACKEND_KEYS.values(), ()))
_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass
class RunConfig:
    backend: str
    p: int
    lambda_g: int
    mu_zero: bool
    surjective_mod_p: bool
    level: int
    optimal_level_asserted: bool
    curve: CurveModel | None = None
    table_path: Path | None = None

    def assertions(self) -> dict:
        """The attested hypotheses, echoed verbatim into every report."""
        return {
            "lambda_g_certified": self.lambda_g,
            "mu_zero": self.mu_zero,
            "surjective_mod_p": self.surjective_mod_p,
            "optimal_level": self.optimal_level_asserted,
            "status": "asserted by configuration, not verified by this tool",
        }


def _parse_entries(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key `{key}`")
        entries[key] = value
    return entries


def _get_int(entries: dict[str, str], key: str, path: Path) -> int:
    try:
        return int(entries[key])
    except ValueError:
        raise ConfigError(f"{path}: key `{key}` must be an integer, got {entries[key]!r}")


def _get_bool(entries: dict[str, str], key: str, path: Path) -> bool:
    value = entries[key].lower()
    if value not in _BOOL_VALUES:
        raise ConfigError(f"{path}: key `{key}` must be true/false, got {entries[key]!r}")
    return _BOOL_VALUES[value]


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    entries = _parse_entries(path)
    unknown = entries.keys() - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")

    for key in _REQUIRED_COMMON:
        if key not in entries:
            raise ConfigError(f"{path}: missing config key `{key}`")

    backend = entries["backend"]
    if backend not in _BACKEND_KEYS:
        raise ConfigError(f"{path}: backend must be 'curve' or 'table', got {backend!r}")
    for other, keys in _BACKEND_KEYS.items():
        for key in keys:
            if other != backend and key in entries:
                raise ConfigError(f"{path}: key `{key}` is for the {other} backend, not {backend}")

    curve = None
    table_path = None
    if backend == "curve":
        for key in ("curve_a_invariants", "conductor"):
            if key not in entries:
                raise ConfigError(f"{path}: missing config key `{key}`")
        try:
            coeffs = [int(c.strip()) for c in entries["curve_a_invariants"].split(",")]
        except ValueError:
            raise ConfigError(f"{path}: curve_a_invariants must be 5 integers")
        if len(coeffs) != 5:
            raise ConfigError(
                f"{path}: curve_a_invariants needs 5 entries a1,a2,a3,a4,a6, got {len(coeffs)}"
            )
        conductor = _get_int(entries, "conductor", path)
        disc = _get_int(entries, "discriminant", path) if "discriminant" in entries else None
        try:
            curve = CurveModel(*coeffs, conductor=conductor, discriminant=disc)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad curve: {exc}")
        level = _get_int(entries, "level", path) if "level" in entries else conductor
        if level != conductor:
            raise ConfigError(
                f"{path}: level {level} != conductor {conductor}; "
                "a curve-backed form lives at its conductor"
            )
    else:
        for key in ("table_path", "level"):
            if key not in entries:
                raise ConfigError(f"{path}: missing config key `{key}`")
        table_path = path.parent / entries["table_path"]  # an absolute path stands alone
        level = _get_int(entries, "level", path)

    return RunConfig(
        backend=backend,
        p=_get_int(entries, "p", path),
        lambda_g=_get_int(entries, "lambda_g", path),
        mu_zero=_get_bool(entries, "mu_zero", path),
        surjective_mod_p=_get_bool(entries, "surjective_mod_p", path),
        level=level,
        curve=curve,
        table_path=table_path,
        optimal_level_asserted=_get_bool(entries, "optimal_level_asserted", path),
    )


def input_paths(path: str | Path) -> list[Path]:
    """The config at ``path`` and each table it names: the files a run on it reads.

    The file is read line by line past any fault :func:`load_config`
    refuses, so that a run whose config does not load still knows them.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8", "replace")
    except OSError:
        return [path]
    fields = (line.split("#", 1)[0].partition("=") for line in text.splitlines())
    return [path, *(path.parent / value.strip() for key, _, value in fields
                    if key.strip() == "table_path" and value.strip())]


def build_context(cfg: RunConfig) -> FormContext:
    """Construct the immutable FormContext a run works against."""
    backend: CurveModel | CoefficientTable
    if cfg.backend == "curve":
        assert cfg.curve is not None
        backend = cfg.curve
    else:
        assert cfg.table_path is not None
        if not cfg.table_path.is_file():
            raise ConfigError(f"coefficient table not found: {cfg.table_path}")
        backend = load_coefficients(cfg.table_path, cfg.level)
    return FormContext(
        level=cfg.level,
        p=cfg.p,
        lambda_g=cfg.lambda_g,
        mu_zero=cfg.mu_zero,
        surjective_mod_p=cfg.surjective_mod_p,
        backend=backend,
    )
