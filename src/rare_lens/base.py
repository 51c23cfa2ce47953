"""Input validation and artifact helpers: estimator inputs, stored JSON, atomic writes.

The learnable components follow the familiar fit/transform/predict shape:
each takes its config section and a seed, and fitted state lands in
trailing-underscore attributes.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import ArtifactError, NotFittedError, ShapeError


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
