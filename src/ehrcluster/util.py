"""Small shared helpers: deterministic seeds, the one CSV and JSON file readers,
typed casts of JSON fields, and CSV writing."""
from __future__ import annotations

import csv
import itertools
import json
import numbers
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, EmptyFile, MissingColumn

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit seed, deterministically.

    Used wherever a sub-seed must depend only on the base seed plus stable
    structural indices (restart number, embedding dimension, cohort index),
    never on execution order.
    """
    state = 0x9E3779B97F4A7C15
    for p in parts:
        state = _splitmix64((state + 0x9E3779B97F4A7C15 + (int(p) & _MASK64)) & _MASK64)
    return state


def rng_from(*parts: int) -> np.random.Generator:
    """Seeded generator keyed on ``derive_seed(*parts)``."""
    return np.random.default_rng(derive_seed(*parts))


def read_csv_rows(path: str | Path) -> tuple[list[str], Iterator[list[str]]]:
    """The header and the data rows of a UTF-8 CSV file, the rows read lazily, one at a time.

    A file without a header or a data row is an EmptyFile. One that cannot be opened,
    decoded or parsed is a ConfigError naming it, raised when the reading reaches the fault.
    """
    rows = _csv_rows(path)
    header, first = next(rows, None), next(rows, None)
    if first is None:
        raise EmptyFile(f"{path}: no header row" if header is None else f"{path}: no data rows")
    return header, itertools.chain([first], rows)


def _csv_rows(path: str | Path) -> Iterator[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: not a readable CSV: {exc}") from None


def column_index(path: str | Path, header: list[str], names: Iterable[str]) -> dict[str, int]:
    """Each name's position in ``header``; it must appear there exactly once."""
    index = {}
    for name in names:
        if name not in header:
            raise MissingColumn(path, name)
        if header.count(name) > 1:
            raise ConfigError(f"{path}: column {name!r} appears {header.count(name)} times in the header")
        index[name] = header.index(name)
    return index


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file; one that cannot be opened, decoded or
    parsed is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers UnicodeDecodeError and JSONDecodeError, and an integer
    # literal over Python's digit limit; RecursionError, nesting too deep to parse
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not a readable JSON file: {exc}") from None


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _float(value) -> float:
    """``float(value)`` of a number or a numeric string, refusing a bool, a null, a list or an object."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    """``int(value)``, refusing what ``_float`` refuses, and a fraction rather than truncating it."""
    if (isinstance(value, bool) or not isinstance(value, (numbers.Real, str))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _cast(cast: Callable, value, where: str):
    """``cast(value)``; a value that will not cast is a ConfigError naming ``where``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _dict(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


# the cast of a config dataclass field, by its annotation; a "... | None" field also takes null
_FIELD_CASTS = {"int": _int, "float": _float, "str": _str, "dict": _dict}


def _build(cls, raw, where: str, **defaults):
    """``cls`` from a JSON object, every field cast by its annotation; a ConfigError names
    ``where``.<field> (<field> alone if ``where`` is empty) if one is unknown, absent but
    required, or will not cast, and ``where`` if ``cls`` refuses the values."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    prefix = f"{where}." if where else ""
    by_name = {f.name: f for f in fields(cls)}
    kwargs = dict(defaults)
    for name, value in raw.items():
        if name not in by_name:
            raise ConfigError(f"{prefix}{name}: unknown field")
        optional = by_name[name].type.endswith(" | None")
        cast = _FIELD_CASTS[by_name[name].type.removesuffix(" | None")]
        kwargs[name] = None if optional and value is None else _cast(cast, value, prefix + name)
    for f in by_name.values():
        if f.default is MISSING and f.default_factory is MISSING and f.name not in kwargs:
            raise ConfigError(f"{prefix}{f.name}: required")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def check_output_dir(path: str | Path, where: str) -> None:
    """ConfigError naming ``where`` if ``path`` cannot be made a directory: it, or its nearest
    parent that exists, is not one."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{where}: {str(existing)!r} is not a directory")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows with a fixed header; '\\n' line endings for byte-stable output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(c) for c in row])


def _format_cell(value) -> str:
    # repr of a float is its shortest round-trip form, so identical floats
    # always serialize to identical bytes.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)
