"""JSON on-disk format for sampled functions and spectra.

A field file is a single JSON object:

    {
      "dimension": n,
      "half_extent": [T, ...],
      "points_per_axis": [N, ...],
      "domain": "space" | "frequency",
      "values_re": [...],
      "values_im": [...]
    }

with values (JSON numbers) in row-major order over zero-centered coordinates.
``domain`` selects whether the payload loads as a :class:`SampledFunction` or
a :class:`Spectrum`.  Writers are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .grid import GridSpec, SampledFunction, Spectrum

__all__ = ["load_field", "save_field", "write_text_atomic"]

_REQUIRED_KEYS = (
    "dimension",
    "half_extent",
    "points_per_axis",
    "domain",
    "values_re",
    "values_im",
)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory.

    The temp file is created with mode 0o666 less the umask, as ``open`` would
    create ``path``; ``tempfile.mkstemp``'s 0o600 would make every file
    owner-only.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_field(path: str | Path, field: SampledFunction | Spectrum) -> None:
    if isinstance(field, SampledFunction):
        domain = "space"
    elif isinstance(field, Spectrum):
        domain = "frequency"
    else:
        raise TypeError("save_field expects a SampledFunction or Spectrum")
    flat = field.values.reshape(-1)
    payload = {
        "dimension": field.grid.dimension,
        "half_extent": list(field.grid.half_extent),
        "points_per_axis": list(field.grid.points_per_axis),
        "domain": domain,
        "values_re": flat.real.tolist(),
        "values_im": flat.imag.tolist(),
    }
    write_text_atomic(path, json.dumps(payload))


def load_field(path: str | Path) -> SampledFunction | Spectrum:
    """Load a field file, validating shape, finiteness, and the domain tag."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in payload]
    if missing:
        raise ValueError(f"{path}: missing required fields {missing}")
    domain = payload["domain"]
    if domain not in ("space", "frequency"):
        raise ValueError(f'{path}: domain must be "space" or "frequency", got {domain!r}')
    try:
        grid = GridSpec(
            payload["dimension"], tuple(payload["half_extent"]), tuple(payload["points_per_axis"])
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid grid: {exc}") from exc
    samples = payload["values_re"], payload["values_im"]
    # numpy would parse "0.5" and take true as 1.0; null loads as NaN, refused below
    if any(isinstance(s, list) and {str, bool} & set(map(type, s)) for s in samples):
        raise ValueError(f"{path}: values_re and values_im samples must be JSON numbers")
    try:
        re, im = (np.asarray(s, dtype=float) for s in samples)
    except OverflowError as exc:
        raise ValueError(f"{path}: a sample is out of the double range ({exc})") from exc
    if re.shape != im.shape or re.ndim != 1:
        raise ValueError(f"{path}: values_re and values_im must be flat lists of equal length")
    if re.size != grid.size:
        raise ValueError(
            f"{path}: {re.size} values do not fill a grid with {grid.size} points"
        )
    cls = SampledFunction if domain == "space" else Spectrum
    try:
        return cls(grid, (re + 1j * im).reshape(grid.shape))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
