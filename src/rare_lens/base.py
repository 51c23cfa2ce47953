"""Input validation and artifact helpers: estimator inputs, stored JSON, atomic writes.

At import it also sets the process's heap policy (see
keep_large_temporaries_in_the_heap).

The learnable components follow the familiar fit/transform/predict shape:
each takes its config section and a seed, and fitted state lands in
trailing-underscore attributes. Config sections are read from JSON by one
strict reader, from_json, for the experiment config file and for the
dataset section that dataset/manifest.json stores.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ArtifactError, ConfigError, NotFittedError, ShapeError

# glibc's mallopt parameters (malloc.h) and the values set for them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # the largest value every 64-bit glibc accepts
TRIM_THRESHOLD = 128 << 20


def keep_large_temporaries_in_the_heap() -> None:
    """Serve numpy temporaries up to 32 MiB from the heap, and keep freed memory.

    By default glibc hands large freed blocks back to the kernel (it maps a
    block of 128 KiB or more on its own and unmaps it when freed, and trims
    the heap's free top), so every large temporary (a [110, 512] float64 FFN
    row block is 440 KiB) is faulted in page by page on each use.
    autodiff.gelu at that shape takes 1.2 ms and 408 minor faults a call,
    against 0.39 ms and none under this policy. Both settings are needed:
    with M_MMAP_THRESHOLD alone the freed block is trimmed back to the
    kernel (408 faults), with M_TRIM_THRESHOLD alone it is mapped (444).
    Setting either also switches off the dynamic threshold. Only addresses
    change, never a value, and up to TRIM_THRESHOLD of freed heap may stay
    resident.

    The policy is process-wide and forked children inherit it. Called once
    when the package is imported; where libc has no mallopt it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to open
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


keep_large_temporaries_in_the_heap()


def check_is_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} must be fit before this call"
        )


def check_matrix(x, name: str, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 2-d array, optionally with fixed width."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {arr.shape}")
    if cols is not None and arr.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    if not np.isfinite(arr).all():
        raise ShapeError(f"{name} contains non-finite values")
    return arr


def check_labels(y, name: str, n_classes: int) -> np.ndarray:
    arr = np.asarray(y, dtype=np.intp).reshape(-1)
    if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
        raise ShapeError(f"{name} labels must lie in [0, {n_classes})")
    return arr


def json_object(doc, what: str, *keys: str) -> dict:
    """Return a parsed JSON value if it is an object holding every key.

    Anything else raises ArtifactError, which run_pipeline treats like a
    torn file: the artifact's stage and everything downstream rebuild.
    """
    if not isinstance(doc, dict) or not set(keys) <= doc.keys():
        raise ArtifactError(f"{what}: expected a JSON object with keys {list(keys)}")
    return doc


def check_counts(cfg, *names: str, least: int = 1) -> None:
    """Raise ConfigError unless each named field of cfg is at least `least`.

    For the counts the code divides by, steps a range by or draws that many
    of: zero or a negative value would otherwise fail deep inside a later
    stage, with a traceback and after earlier stages wrote their artifacts.
    Epoch counts take least=0, since zero epochs is a phase skipped on
    purpose, and a negative count would skip it silently.
    """
    for name in names:
        value = getattr(cfg, name)
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")


def json_fits(value, kind: type) -> bool:
    """Whether a JSON scalar may fill a field whose default is of `kind`."""
    if isinstance(value, bool):  # bool is an int subclass, never a number here
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def from_json(cls, doc: dict, path: str):
    """Build config dataclass `cls` from a parsed JSON object, nested sections too.

    Missing keys take their defaults; an unknown key or a value of the wrong
    JSON type raises ConfigError naming its dotted `path`.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    known = {f.name: f for f in fields(cls)}
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        where = f"{path}.{name}" if path else name
        section = known[name].default_factory  # a nested config class, or MISSING
        kind = type(known[name].default)
        if is_dataclass(section):
            kwargs[name] = from_json(section, value, where)
        elif not json_fits(value, kind):
            raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
        elif kind is float:
            # Stored as a float, so 1 and 1.0 give equal configs and equal hashes.
            try:
                kwargs[name] = float(value)
            except OverflowError:
                raise ConfigError(f"{where}: {value!r} is out of range for a float") from None
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a section's own check, e.g. VLMConfig's
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def write_atomic(path, data: bytes | str) -> None:
    """Write a file through a temporary sibling and os.replace.

    A reader finds the old file or the new one, never a torn one: a write
    that fails leaves the old file in place and removes the temporary one.
    Nothing is fsynced, so this guards against an interrupted process, not
    against a power cut.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
