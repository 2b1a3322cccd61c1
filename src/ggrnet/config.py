"""Flat dotted-key run configuration and manifest rendering.

A run file is plain text, one ``key = value`` per line with ``#`` comments.
Every run directory receives a manifest in the same format with all
defaults materialized, so a run can be reproduced by pointing ``train
--config`` at the manifest it wrote.
"""
from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from .data import (DATASET_FORMATS, DEFAULT_ELEMENTS, CommentSchema, SplitSpec, read_text,
                   repeated_symbol, sample_dataset_path)
from .errors import ConfigError, DataError, ParseError
from .model import ModelConfig
from .training import TrainConfig

__all__ = ["RunSpec", "parse_config_text", "load_run_spec", "resolve_run_spec",
           "resolve_schema"]


def _parse_bool(s: str) -> bool:
    norm = s.strip().lower()
    if norm in ("true", "yes", "1"):
        return True
    if norm in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: '{s}'")


def _parse_elements(s: str) -> tuple[str, ...]:
    items = tuple(tok.strip() for tok in s.split(",") if tok.strip())
    if not items:
        raise ValueError("empty element list")
    repeated = repeated_symbol(items)
    if repeated is not None:
        raise ValueError(f"element '{repeated}' is listed twice")
    return items


def _canonical(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value)


_PARSERS: dict[Any, Callable[[str], Any]] = {bool: _parse_bool, int: int, float: float}


def _section_keys(prefix: str, cls, skip: tuple[str, ...] = ()) -> dict:
    """``prefix.field`` keys of a config dataclass, typed and defaulted by its fields."""
    hints = typing.get_type_hints(cls)
    return {f"{prefix}.{f.name}": (_PARSERS[hints[f.name]], _canonical(f.default))
            for f in dataclasses.fields(cls) if f.name not in skip}


# key -> (parser, default in canonical string form)
_KEYS: dict[str, tuple[Callable[[str], Any], str]] = {
    "dataset.path": (str, ""),
    "dataset.format": (str, "auto"),
    "dataset.schema": (str, ""),
    "dataset.elements": (_parse_elements, _canonical(DEFAULT_ELEMENTS)),
    "target": (str, ""),
    **_section_keys("split", SplitSpec),
    **_section_keys("model", ModelConfig),
    **_section_keys("train", TrainConfig, skip=("target_property", "model")),
    "run.runs": (int, "1"),
    "run.threads": (int, "1"),
    "run.resplit": (_parse_bool, "false"),
}

def _known_key(key: str, where: str) -> str:
    if key not in _KEYS:
        raise ConfigError(f"{where}unknown config key '{key}' "
                          f"(known keys: {', '.join(sorted(_KEYS))})")
    return key


def parse_config_text(text: str) -> dict[str, str]:
    """Raw ``key -> value-string`` pairs from config text; later lines win."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got '{line.strip()}'")
        key, value = (part.strip() for part in body.split("=", 1))
        raw[_known_key(key, f"config line {lineno}: ")] = value
    return raw


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved run configuration with typed accessors."""

    values: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def _section(self, prefix: str) -> dict[str, Any]:
        return {key[len(prefix) + 1:]: value for key, value in self.values.items()
                if key.startswith(prefix + ".")}

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self._section("model"))

    def train_config(self) -> TrainConfig:
        return TrainConfig(target_property=self.values["target"], model=self.model_config(),
                           **self._section("train"))

    def split_spec(self) -> SplitSpec:
        return SplitSpec(**self._section("split"))

    def run(self, r: int) -> "RunSpec":
        """The spec of run ``r`` of ``run.runs`` alone: its ``train.seed`` is
        ``train.seed`` plus r, its ``split.seed`` is ``split.seed`` plus r with
        ``run.resplit``, else ``split.seed``, and it is one run without
        ``run.resplit``, so its manifest reproduces that run."""
        values = dict(self.values, **{"run.runs": 1, "run.resplit": False})
        values["train.seed"] += r
        values["split.seed"] += r if self.values["run.resplit"] else 0
        return RunSpec(values=values)

    def schema(self) -> CommentSchema | None:
        return resolve_schema(self.values["dataset.schema"])

    def dataset_path(self) -> Path:
        spec = self.values["dataset.path"]
        if not spec:
            raise ConfigError("dataset.path is required")
        if spec == "builtin:sample10":
            return sample_dataset_path()
        if spec.startswith("builtin:"):
            raise ConfigError(f"dataset.path '{spec}' names no builtin dataset; "
                              f"the only one is builtin:sample10")
        return Path(spec)

    def manifest_text(self) -> str:
        lines = [f"{key} = {_canonical(self.values[key])}" for key in sorted(self.values)]
        return "\n".join(lines) + "\n"


def resolve_run_spec(raw: dict[str, str], overrides: Sequence[str] = ()) -> RunSpec:
    """Defaults overlaid with file values and then ``key=value`` overrides."""
    merged = {key: default for key, (_, default) in _KEYS.items()}
    merged.update(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        merged[_known_key(key, "")] = value

    typed: dict[str, Any] = {}
    for key, raw_value in merged.items():
        try:
            typed[key] = _KEYS[key][0](raw_value)
        except ValueError as err:
            raise ConfigError(f"config key '{key}': {err}") from err
    if typed["run.runs"] < 1:
        raise ConfigError(f"config key 'run.runs' must be >= 1, got {typed['run.runs']}")
    if typed["run.threads"] < 0:
        raise ConfigError(f"config key 'run.threads' must be >= 0 (0 means no cap), "
                          f"got {typed['run.threads']}")
    if typed["dataset.format"] not in DATASET_FORMATS:
        raise ConfigError(f"dataset.format must be one of {DATASET_FORMATS}, "
                          f"got '{typed['dataset.format']}'")
    # keep stored paths absolute so a manifest reproduces the run from anywhere
    path = typed["dataset.path"]
    if path and not path.startswith("builtin:"):
        typed["dataset.path"] = str(Path(path).absolute())
    return RunSpec(values=typed)


def load_run_spec(path, overrides: Sequence[str] = ()) -> RunSpec:
    """The run spec of the config file at ``path`` with ``overrides``."""
    try:
        text = read_text(path, f"config file {path}")
    except (DataError, ParseError) as err:
        raise ConfigError(str(err)) from err
    return resolve_run_spec(parse_config_text(text), overrides)


def resolve_schema(spec: str | None) -> CommentSchema | None:
    """The comment-line schema named by ``spec``: ``builtin:NAME`` or a JSON file
    path; ``None`` when empty. Every way the schema can be unusable raises
    :class:`ConfigError`."""
    if not spec:
        return None
    try:
        if spec.startswith("builtin:"):
            return CommentSchema.builtin(spec.split(":", 1)[1])
        return CommentSchema.from_file(spec)
    except (DataError, ParseError) as err:
        raise ConfigError(str(err)) from err
