"""JSON on-disk format for sampled functions and spectra.

A field file is a single JSON object:

    {
      "dimension": n,
      "half_extent": [T, ...],
      "points_per_axis": [N, ...],
      "domain": "space" | "frequency",
      "encoding": "f64le-base64",
      "values_re": "<base64>",
      "values_im": "<base64>"
    }

with values in row-major order over zero-centered coordinates: each string is
the standard base64 encoding of the little-endian float64 bytes of the real or
imaginary parts, 8 bytes per sample.  This is exact for every double, signed
zeros and subnormals included.  Files without an ``encoding`` key, whose
``values_re`` and ``values_im`` are lists of JSON numbers, are the earlier form;
``load_field`` reads both, ``save_field`` writes only the base64 form.
``domain`` selects whether the payload loads as a :class:`SampledFunction` or
a :class:`Spectrum`.  Writers are atomic (temp file + rename).

A file written by ``save_field`` is exactly ``json.dumps`` of that object, keys
in the order shown: one line, ``", "`` and ``": "`` separators, no trailing
newline.  Only the header goes through ``json.dumps``; the two base64 strings
are joined in as they are, since their alphabet needs no JSON escape.
``load_field`` reads any JSON layout of the same object.
"""

from __future__ import annotations

import base64
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
_ENCODING = "f64le-base64"


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


def _encode(part: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(part, dtype="<f8")).decode("ascii")


def save_field(path: str | Path, field: SampledFunction | Spectrum) -> None:
    if isinstance(field, SampledFunction):
        domain = "space"
    elif isinstance(field, Spectrum):
        domain = "frequency"
    else:
        raise TypeError("save_field expects a SampledFunction or Spectrum")
    flat = field.values.reshape(-1)
    header = json.dumps(
        {
            "dimension": field.grid.dimension,
            "half_extent": list(field.grid.half_extent),
            "points_per_axis": list(field.grid.points_per_axis),
            "domain": domain,
            "encoding": _ENCODING,
        }
    )
    re, im = _encode(flat.real), _encode(flat.imag)
    # json.dumps of the whole payload, less its scan of every base64 character
    # for an escape that the alphabet never needs
    text = (header[:-1], ', "values_re": "', re, '", "values_im": "', im, '"}')
    write_text_atomic(path, "".join(text))


def _decode_base64(path, samples) -> list[np.ndarray]:
    if not all(isinstance(s, str) for s in samples):
        raise ValueError(
            f"{path}: with encoding {_ENCODING}, values_re and values_im must be strings"
        )
    parts = []
    for s in samples:
        try:
            raw = base64.b64decode(s, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise ValueError(f"{path}: values_re or values_im is not valid base64 ({exc})") from exc
        if len(raw) % 8:
            raise ValueError(f"{path}: {len(raw)} bytes are not a whole number of float64 samples")
        parts.append(np.frombuffer(raw, dtype="<f8"))
    return parts


def _decode_lists(path, samples) -> list[np.ndarray]:
    # numpy would parse "0.5" and take true as 1.0; null loads as NaN, refused below
    json_numbers = {int, float, type(None)}
    if not all(isinstance(s, list) and set(map(type, s)) <= json_numbers for s in samples):
        raise ValueError(f"{path}: values_re and values_im samples must be JSON numbers")
    try:
        return [np.asarray(s, dtype=float) for s in samples]
    except OverflowError as exc:
        raise ValueError(f"{path}: a sample is out of the double range ({exc})") from exc


def load_field(path: str | Path) -> SampledFunction | Spectrum:
    """Load a field file, validating shape, finiteness, and the domain tag.

    Reads the base64 form and the earlier list form (no ``encoding`` key); both
    load exactly, signed zeros included.
    """
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
    if "encoding" not in payload:
        re, im = _decode_lists(path, samples)
    elif payload["encoding"] == _ENCODING:
        re, im = _decode_base64(path, samples)
    else:
        raise ValueError(
            f"{path}: unknown encoding {payload['encoding']!r}, expected {_ENCODING!r}"
        )
    if re.shape != im.shape:
        raise ValueError(
            f"{path}: values_re and values_im must be flat lists of equal length, "
            f"got {re.size} and {im.size} samples"
        )
    if re.size != grid.size:
        raise ValueError(
            f"{path}: {re.size} values do not fill a grid with {grid.size} points"
        )
    # re + 1j * im would turn a -0.0 imaginary part (and a -0.0 real part
    # beside an imaginary part >= 0) into +0.0
    values = np.empty(re.size, dtype=complex)
    values.real, values.imag = re, im
    cls = SampledFunction if domain == "space" else Spectrum
    try:
        return cls(grid, values.reshape(grid.shape))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
