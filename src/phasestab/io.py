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
are joined in as they are, since their alphabet needs no JSON escape.  The
separators they are joined with, ``_RE_AFTER_HEADER``, ``_IM_AFTER_RE`` and
``_END``, and the header's keys, ``_HEADER_KEYS``, are the one statement of
that layout, which the writer and the reader share.

``load_field`` has two paths to the same object.  A file in exactly that
layout (``_split``) is cut at the separators: only the header goes through
``json.loads``, and each sample string goes to a numpy base64 decoder
(``_b64decode``) that accepts, refuses and returns what
``base64.b64decode(validate=True)`` does.  Every other file (indentation,
another key order, whitespace, escapes, the list form) goes through
``json.loads`` whole, and so does a file the first path refuses, so every
refusal carries the message of the general path.  Both read any JSON layout
of the same object to the same bits.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path

import numpy as np

from .grid import GridSpec, SampledFunction, Spectrum, _run_blocks

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
# save_field's layout, which _split reads back: json.dumps of the header's
# keys, in this order, then the two sample strings between these separators
_HEADER_KEYS = ("dimension", "half_extent", "points_per_axis", "domain", "encoding")
_RE_AFTER_HEADER = ', "values_re": "'
_IM_AFTER_RE = '", "values_im": "'
_END = '"}'
# the sextet of each base64 character, 0xFF for every other byte
_SEXTETS = bytes(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/".find(byte) & 0xFF
    for byte in range(256)
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
    text = (header[:-1], _RE_AFTER_HEADER, re, _IM_AFTER_RE, im, _END)
    write_text_atomic(path, "".join(text))


def _split(text: str) -> dict | None:
    """The payload of ``text`` where it is in ``save_field``'s own layout: the
    header, as ``json.dumps`` writes it with the five header keys in order,
    then the two sample strings, free of ``"`` and ``\\``, between the
    separators; else None.  Only the header goes through ``json.loads``."""
    start = text.find(_RE_AFTER_HEADER)
    middle = text.find(_IM_AFTER_RE, start + len(_RE_AFTER_HEADER))
    if start < 0 or middle < 0 or not text.endswith(_END):
        return None
    re = text[start + len(_RE_AFTER_HEADER) : middle]
    im = text[middle + len(_IM_AFTER_RE) : -len(_END)]
    if '"' in re or "\\" in re or '"' in im or "\\" in im:
        return None
    head = text[:start] + "}"
    try:
        header = json.loads(head)
    except json.JSONDecodeError:
        return None
    if tuple(header) != _HEADER_KEYS or json.dumps(header) != head:
        return None
    return {**header, "values_re": re, "values_im": im}


def _b64decode(text: str) -> np.ndarray:
    """``base64.b64decode(text, validate=True)`` as a uint8 array: the same
    bytes for every text it accepts, and its own error for every other.

    A text of whole quads, all of them in ASCII, goes through
    ``_decode_quads``; ``b64decode`` itself decodes every text that this
    does not take (a length that is not a multiple of 4, a character outside
    ASCII or outside the alphabet, bad padding)."""
    if text and len(text) % 4 == 0 and text.isascii():
        out = _decode_quads(text)
        if out is not None:
            return out
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=np.uint8)


def _decode_quads(text: str) -> np.ndarray | None:
    """The bytes of the ASCII base64 ``text`` of whole quads, or None where a
    quad but the last holds a character outside the alphabet (``=``
    included) or the last is not valid base64.

    The last quad, the only one that may hold padding, goes through
    ``b64decode``.  The others go in blocks of ``_run_blocks``: each block's
    characters are mapped to their sextets by ``bytes.translate`` (0xFF
    outside the alphabet), each quad, read as one little-endian uint32, is
    packed into 24 bits, and its three bytes are stored through stride-3
    ``>u2`` and ``u1`` views of the output."""
    data = text.encode("ascii")
    quads = len(data) // 4 - 1
    try:
        last = base64.b64decode(data[-4:], validate=True)
    except ValueError:
        return None
    out = np.empty(3 * quads + len(last), dtype=np.uint8)
    out[3 * quads :] = np.frombuffer(last, dtype=np.uint8)
    high = np.ndarray((quads,), ">u2", out, 0, (3,))
    low = out[2 : 3 * quads : 3]

    def block(s):
        sextets = data[4 * s.start : 4 * s.stop].translate(_SEXTETS)
        if b"\xff" in sextets:
            return False
        quad = np.frombuffer(sextets, dtype="<u4")
        bits = (quad & 0x3F) << 18
        bits |= (quad & 0x3F00) << 4
        bits |= (quad >> 10) & 0xFC0
        bits |= quad >> 24
        np.right_shift(bits, 8, out=high[s], casting="unsafe")
        np.bitwise_and(bits, 0xFF, out=low[s], casting="unsafe")
        return True

    return out if all(_run_blocks(block, quads)) else None


def _decode_base64(path, samples) -> list[np.ndarray]:
    if not all(isinstance(s, str) for s in samples):
        raise ValueError(
            f"{path}: with encoding {_ENCODING}, values_re and values_im must be strings"
        )
    parts = []
    for s in samples:
        try:
            raw = _b64decode(s)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise ValueError(f"{path}: values_re or values_im is not valid base64 ({exc})") from exc
        if raw.size % 8:
            raise ValueError(f"{path}: {raw.size} bytes are not a whole number of float64 samples")
        parts.append(raw.view("<f8"))
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


def _parse(path, text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


def load_field(path: str | Path) -> SampledFunction | Spectrum:
    """Load a field file, validating shape, finiteness, and the domain tag.

    Reads the base64 form and the earlier list form (no ``encoding`` key); both
    load exactly, signed zeros included.
    """
    with open(path) as handle:
        text = handle.read()
    split = _split(text)
    payload = split if split is not None else _parse(path, text)
    del text  # the samples alone are kept while they decode
    try:
        return _field(path, payload)
    except ValueError:
        if split is None:
            raise
    # the split takes a sample that json.loads refuses, a raw control
    # character, which no base64 decoder takes either: json.loads names it
    with open(path) as handle:
        return _field(path, _parse(path, handle.read()))


def _field(path, payload: dict) -> SampledFunction | Spectrum:
    """The field of a file's ``payload``, whose samples it takes out of it."""
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
    samples = payload.pop("values_re"), payload.pop("values_im")
    if "encoding" not in payload:
        re, im = _decode_lists(path, samples)
    elif payload["encoding"] == _ENCODING:
        re, im = _decode_base64(path, samples)
    else:
        raise ValueError(
            f"{path}: unknown encoding {payload['encoding']!r}, expected {_ENCODING!r}"
        )
    del samples  # freed before the field's buffer is made
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
        # no one else holds values: the field keeps it, scanned once
        return cls._own(grid, values.reshape(grid.shape))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
