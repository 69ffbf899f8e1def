import base64
import dataclasses
import io
import itertools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from phasestab import bounds, cli, experiments
from phasestab.bounds import evaluate_corollary1, evaluate_theorem
from phasestab.cli import main
from phasestab.experiments import gaussian, triangle_spectrum
from phasestab.grid import GridSpec, SampledFunction, Spectrum, inverse_transform, shift
from phasestab.io import _b64decode, _split, load_field, save_field, write_text_atomic

GRID = GridSpec.uniform(1, 16.0, 1024)
ENCODING = "f64le-base64"
# written by the list-form save_field; load_field still reads that form
LIST_FORM_FIXTURE = Path(__file__).parent / "data" / "field_list_form.json"
# the same eight samples as written by the base64 save_field: its bytes are pinned
BASE64_FIXTURE = Path(__file__).parent / "data" / "field_base64.json"
FIXTURE_RE = [0.0, -0.0, 1.5, -2.25, 5e-324, 2.2250738585072014e-308, 1e300, -0.1]
FIXTURE_IM = [-0.0, 0.0, -0.0, 4.9e-322, -5e-324, 1 / 3, -1e-300, 0.0]


def _b64(samples) -> str:
    return base64.b64encode(np.asarray(samples, dtype="<f8").tobytes()).decode("ascii")


def _samples(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").copy()


def _as_list_form(payload: dict) -> dict:
    """The same field in the list form: no encoding key, lists of JSON numbers."""
    lists = {k: _samples(payload[k]).tolist() for k in ("values_re", "values_im")}
    return {k: v for k, v in payload.items() if k != "encoding"} | lists


def _saved_text(payload: dict) -> str:
    """The text save_field writes for the grid of ``payload``, all samples 0."""
    header = {k: payload[k] for k in ("dimension", "half_extent", "points_per_axis", "domain")}
    zeros = _b64([0.0] * payload["points_per_axis"][0])
    return json.dumps({**header, "encoding": ENCODING, "values_re": zeros, "values_im": zeros})


def _assert_fixture_values(loaded):
    expected = np.empty(8, dtype=complex)
    expected.real, expected.imag = FIXTURE_RE, FIXTURE_IM
    assert isinstance(loaded, SampledFunction)
    assert loaded.grid == GridSpec.uniform(1, 2.0, 8)
    assert loaded.values.tobytes() == expected.tobytes()


@pytest.fixture
def gaussian_file(tmp_path):
    path = tmp_path / "f.json"
    save_field(path, gaussian(GRID))
    return path


@pytest.fixture
def shifted_file(tmp_path):
    path = tmp_path / "g.json"
    save_field(path, shift(gaussian(GRID), 0.1))
    return path


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


class TestFieldFiles:
    def test_roundtrip_space(self, tmp_path, rng):
        f = SampledFunction(GRID, rng.normal(size=GRID.shape) + 1j * rng.normal(size=GRID.shape))
        path = tmp_path / "field.json"
        save_field(path, f)
        loaded = load_field(path)
        assert isinstance(loaded, SampledFunction)
        assert loaded.grid == GRID
        assert np.array_equal(loaded.values, f.values)

    def test_roundtrip_frequency(self, tmp_path):
        F = triangle_spectrum(GridSpec.uniform(1, 2.0, 256))
        path = tmp_path / "spec.json"
        save_field(path, F)
        loaded = load_field(path)
        assert isinstance(loaded, Spectrum)
        assert np.array_equal(loaded.values, F.values)

    def test_roundtrip_2d(self, tmp_path, grid_2d):
        f = gaussian(grid_2d)
        path = tmp_path / "f2.json"
        save_field(path, f)
        loaded = load_field(path)
        assert loaded.grid == grid_2d
        assert np.array_equal(loaded.values, f.values)

    @pytest.mark.parametrize(
        "umask, mode",
        [pytest.param(0o022, 0o644, id="umask-022"), pytest.param(0o077, 0o600, id="umask-077")],
    )
    def test_written_files_follow_the_umask(self, umask, mode, tmp_path):
        # as open() would create them: 0o666 less the umask
        old = os.umask(umask)
        try:
            save_field(tmp_path / "f.json", gaussian(GRID))
            write_text_atomic(tmp_path / "report.json", "{}")
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "report.json"]
        for p in tmp_path.iterdir():
            assert stat.S_IMODE(p.stat().st_mode) == mode

    def test_failed_write_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            write_text_atomic(tmp_path / "report.json", None)
        assert list(tmp_path.iterdir()) == []

    def test_exact_schema(self, gaussian_file):
        payload = json.loads(gaussian_file.read_text())
        assert set(payload) == {
            "dimension",
            "half_extent",
            "points_per_axis",
            "domain",
            "encoding",
            "values_re",
            "values_im",
        }
        assert payload["domain"] == "space"
        assert payload["dimension"] == 1
        assert payload["half_extent"] == [16.0]
        assert payload["points_per_axis"] == [1024]
        assert payload["encoding"] == ENCODING
        for key in ("values_re", "values_im"):
            assert isinstance(payload[key], str)
            assert len(base64.b64decode(payload[key], validate=True)) == 8 * 1024

    @pytest.mark.parametrize("form", ["base64", "list"])
    def test_signed_zeros_roundtrip(self, form, tmp_path):
        # all four signed-zero combinations; np.array_equal takes -0.0 == 0.0
        values = np.array(
            [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        )
        f = SampledFunction(GridSpec.uniform(1, 1.0, 4), values)
        path = tmp_path / "zeros.json"
        save_field(path, f)
        if form == "list":
            path.write_text(json.dumps(_as_list_form(json.loads(path.read_text()))))
        assert load_field(path).values.tobytes() == f.values.tobytes()

    def test_list_form_fixture(self):
        assert "encoding" not in json.loads(LIST_FORM_FIXTURE.read_text())
        _assert_fixture_values(load_field(LIST_FORM_FIXTURE))

    def test_base64_fixture(self):
        assert json.loads(BASE64_FIXTURE.read_text())["encoding"] == ENCODING
        _assert_fixture_values(load_field(BASE64_FIXTURE))

    def test_saved_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "f.json"
        save_field(path, load_field(LIST_FORM_FIXTURE))
        assert path.read_bytes() == BASE64_FIXTURE.read_bytes()

    @pytest.mark.parametrize(
        "grid",
        [
            pytest.param(GridSpec.uniform(1, 16.0, 1024), id="1d"),
            pytest.param(GridSpec(2, (8.0, 4.0), (64, 32)), id="2d"),
            pytest.param(GridSpec(3, (4.0, 3.0, 2.0), (16, 8, 4)), id="3d"),
        ],
    )
    @pytest.mark.parametrize("cls", [SampledFunction, Spectrum])
    def test_saved_text_is_json_dumps_of_its_payload(self, grid, cls, tmp_path, rng):
        values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        values.flat[:3] = [complex(-0.0, -0.0), complex(5e-324, -1e-310), complex(1e300, -1e300)]
        path = tmp_path / "f.json"
        save_field(path, cls(grid, values))
        text = path.read_text()
        assert text == json.dumps(json.loads(text))
        assert list(json.loads(text)) == [
            "dimension",
            "half_extent",
            "points_per_axis",
            "domain",
            "encoding",
            "values_re",
            "values_im",
        ]
        assert load_field(path).values.tobytes() == values.tobytes()
        # the reader's own path: cut at the separators, the same object
        assert _split(text) == json.loads(text)

    @pytest.mark.parametrize(
        "layout",
        [
            pytest.param(lambda payload: json.dumps(payload, indent=2), id="indent-2"),
            pytest.param(lambda payload: json.dumps(dict(reversed(payload.items()))), id="reordered"),
            pytest.param(
                lambda payload: "\n " + json.dumps(payload, separators=(" ,\t", " :\r\n ")) + " \n\n",
                id="extra-whitespace",
            ),
            # near save_field's own layout: each goes through json.loads whole
            pytest.param(
                lambda payload: json.dumps(payload).replace(
                    '"values_re": "A', '"values_re": "\\u0041', 1
                ),
                id="escape-in-a-sample",
            ),
            pytest.param(lambda payload: json.dumps(payload) + "\n", id="trailing-newline"),
            # json.loads keeps the last value of a key, in the place of its first
            pytest.param(
                lambda payload: json.dumps(payload).replace(
                    '"dimension": 1', '"dimension": 3, "dimension": 1', 1
                ),
                id="duplicate-key",
            ),
            pytest.param(
                lambda payload: json.dumps(payload).replace('"dimension": 1', '"dimension":  1', 1),
                id="whitespace-in-the-header",
            ),
        ],
    )
    def test_reader_does_not_depend_on_the_layout(self, layout, tmp_path):
        payload = json.loads(BASE64_FIXTURE.read_text())
        path = tmp_path / "f.json"
        path.write_text(layout(payload))
        assert path.read_bytes() != BASE64_FIXTURE.read_bytes()
        assert _split(path.read_text()) is None
        _assert_fixture_values(load_field(path))

    def test_list_form_copy_loads_identically(self, tmp_path, grid_2d, rng):
        values = rng.normal(size=grid_2d.shape) + 1j * rng.normal(size=grid_2d.shape)
        values[0, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324j]
        f = SampledFunction(grid_2d, values)
        path, copy = tmp_path / "f.json", tmp_path / "f_list.json"
        save_field(path, f)
        copy.write_text(json.dumps(_as_list_form(json.loads(path.read_text()))))
        for p in (path, copy):
            assert load_field(p).values.tobytes() == f.values.tobytes()

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 1}')
        with pytest.raises(ValueError, match="missing required fields"):
            load_field(path)

    def test_nan_sample(self, tmp_path, gaussian_file):
        payload = json.loads(gaussian_file.read_text())
        re = _samples(payload["values_re"])
        re[5] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({**payload, "values_re": _b64(re)}))
        with pytest.raises(ValueError, match="non-finite sample"):
            load_field(bad)
        lists = _as_list_form(payload)
        lists["values_re"][5] = None  # json null -> nan
        bad.write_text(json.dumps(lists))
        with pytest.raises(ValueError, match="non-finite sample"):
            load_field(bad)

    def test_bad_domain(self, tmp_path, gaussian_file):
        payload = json.loads(gaussian_file.read_text())
        payload["domain"] = "fourier"
        bad = tmp_path / "dom.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="domain"):
            load_field(bad)

    def test_length_mismatch(self, tmp_path, gaussian_file):
        payload = json.loads(gaussian_file.read_text())
        payload["values_re"] = payload["values_re"][:-1]
        bad = tmp_path / "len.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_field(bad)

    def test_odd_point_count(self, tmp_path):
        bad = tmp_path / "odd.json"
        bad.write_text(
            json.dumps(
                {
                    "dimension": 1,
                    "half_extent": [1.0],
                    "points_per_axis": [7],
                    "domain": "space",
                    "values_re": [0.0] * 7,
                    "values_im": [0.0] * 7,
                }
            )
        )
        with pytest.raises(ValueError, match="even"):
            load_field(bad)

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("points_per_axis", [4.7], id="points-4.7"),
            pytest.param("points_per_axis", ["4"], id="points-str"),
            pytest.param("dimension", 1.9, id="dimension-1.9"),
            pytest.param("dimension", True, id="dimension-bool"),
            pytest.param("half_extent", ["1.0"], id="extent-str"),
            pytest.param("half_extent", [True], id="extent-bool"),
            # an integer beyond the double range is bad input, not an overflow
            pytest.param("half_extent", [10**400], id="extent-huge-int"),
        ],
    )
    def test_non_integer_count(self, key, value, tmp_path, capsys):
        # 4 samples: a file whose counts int() would truncate to 1 and 4, or
        # whose extent float() would parse or take as 1.0, loads
        payload = {
            "dimension": 1,
            "half_extent": [1.0],
            "points_per_axis": [4],
            "domain": "space",
            "values_re": [0.0] * 4,
            "values_im": [0.0] * 4,
        }
        payload[key] = value
        bad = tmp_path / "counts.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="invalid grid"):
            load_field(bad)
        assert main(["verify", "--f", str(bad), "--g", str(bad), "--p", "1.0"]) == 1
        assert "invalid grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, fragment",
        [
            pytest.param(lambda p: [p], "expected a JSON object", id="not-an-object"),
            pytest.param(
                lambda p: {**p, "values_re": [0.0] * 6, "values_im": [0.0] * 6},
                "6 values do not fill a grid with 4 points", id="too-many-values",
            ),
            # numpy would parse a string and take true as 1.0
            pytest.param(
                lambda p: {**p, "values_re": ["0.5", 0.0, 0.0, 0.0]}, "JSON numbers", id="re-str"
            ),
            pytest.param(
                lambda p: {**p, "values_re": [True, 0.0, 0.0, 0.0]}, "JSON numbers", id="re-bool"
            ),
            pytest.param(
                lambda p: {**p, "values_im": [0.0, "1", 0.0, 0.0]}, "JSON numbers", id="im-str"
            ),
            pytest.param(
                lambda p: {**p, "values_im": [0.0, 0.0, False, 0.0]}, "JSON numbers", id="im-bool"
            ),
            # numpy would raise its own error, naming neither the file nor the field
            pytest.param(
                lambda p: {**p, "values_re": [{}, 0.0, 0.0, 0.0]}, "JSON numbers", id="re-object"
            ),
            pytest.param(
                lambda p: {**p, "values_re": [[1.0], 0.0, 0.0, 0.0]}, "JSON numbers",
                id="re-nested",
            ),
            pytest.param(lambda p: {**p, "values_re": "abc"}, "JSON numbers", id="re-not-a-list"),
            pytest.param(lambda p: {**p, "values_im": None}, "JSON numbers", id="im-null"),
            pytest.param(
                lambda p: {**p, "values_im": [0.0] * 3}, "flat lists of equal length",
                id="unequal-lengths",
            ),
            # bad input, not an overflow of the bound
            pytest.param(
                lambda p: {**p, "values_re": [10**400, 0, 0, 0]}, "out of the double range",
                id="re-huge-int",
            ),
            # the base64 form
            # a decoder that skipped characters outside the alphabet would load these
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0] * 4)[:8] + "@"
                           + _b64([0.0] * 4)[8:], "values_im": _b64([0.0] * 4)},
                "not valid base64", id="b64-outside-alphabet",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0] * 4),
                           "values_im": _b64([0.0] * 4)[:20] + "\n" + _b64([0.0] * 4)[20:]},
                "not valid base64", id="b64-line-break",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0] * 4),
                           "values_im": "é" + _b64([0.0] * 4)[1:]},
                "not valid base64", id="b64-non-ascii",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0] * 4).rstrip("="),
                           "values_im": _b64([0.0] * 4)},
                "not valid base64", id="b64-bad-padding",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0] * 4),
                           "values_im": base64.b64encode(bytes(31)).decode()},
                "31 bytes are not a whole number of float64 samples", id="b64-partial-sample",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0] * 3),
                           "values_im": _b64([0.0] * 3)},
                "3 values do not fill a grid with 4 points", id="b64-too-few-values",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0] * 4),
                           "values_im": _b64([0.0] * 5)},
                "flat lists of equal length", id="b64-unequal-lengths",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0, math.nan, 0.0, 0.0]),
                           "values_im": _b64([0.0] * 4)},
                "non-finite sample", id="b64-nan",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING, "values_re": _b64([0.0] * 4),
                           "values_im": _b64([0.0, 0.0, -math.inf, 0.0])},
                "non-finite sample", id="b64-inf",
            ),
            pytest.param(
                lambda p: {**p, "encoding": "f32le-base64", "values_re": _b64([0.0] * 4),
                           "values_im": _b64([0.0] * 4)},
                "unknown encoding 'f32le-base64'", id="unknown-encoding",
            ),
            pytest.param(
                lambda p: {**p, "encoding": ENCODING}, "must be strings", id="encoding-with-lists"
            ),
            pytest.param(
                lambda p: {**p, "values_re": _b64([0.0] * 4), "values_im": _b64([0.0] * 4)},
                "JSON numbers", id="strings-without-encoding",
            ),
            # near save_field's own layout, written as text: json.loads names
            # what is wrong, as it does for any other layout
            pytest.param(
                lambda p: _saved_text(p).replace('"values_im": "AA', '"values_im": "A\x01', 1),
                "malformed JSON", id="control-character-in-a-sample",
            ),
            pytest.param(lambda p: _saved_text(p)[:-9], "malformed JSON", id="truncated"),
        ],
    )
    def test_invalid_payload_is_input_error(self, change, fragment, tmp_path, capsys):
        payload = {
            "dimension": 1,
            "half_extent": [1.0],
            "points_per_axis": [4],
            "domain": "space",
            "values_re": [0.0] * 4,
            "values_im": [0.0] * 4,
        }
        bad = tmp_path / "bad.json"
        changed = change(payload)
        bad.write_text(changed if isinstance(changed, str) else json.dumps(changed))
        with pytest.raises(ValueError, match=fragment):
            load_field(bad)
        assert main(["verify", "--f", str(bad), "--g", str(bad), "--p", "1.0"]) == 1
        assert fragment in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="malformed JSON"):
            load_field(bad)


def _decoded(decode, text):
    """The bytes ``decode`` makes of ``text``, or the type and text of its error."""
    try:
        return bytes(decode(text))
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_decodes_as_b64decode(text):
    """Assert that _b64decode accepts, refuses and returns what b64decode
    does; its outcome."""
    expected = _decoded(lambda t: base64.b64decode(t, validate=True), text)
    assert _decoded(lambda t: _b64decode(t).tobytes(), text) == expected
    return expected


BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


class TestBase64Decoder:
    """io._b64decode accepts, refuses and returns what b64decode(validate=True) does."""

    @pytest.mark.parametrize("size", range(65))
    def test_every_short_length(self, size, rng):
        raw = rng.bytes(size)
        text = base64.b64encode(raw).decode("ascii")
        assert _b64decode(text).tobytes() == raw
        _assert_decodes_as_b64decode(text)

    @pytest.mark.parametrize(
        "size",
        [
            pytest.param(8 * 256**2, id="256^2-part"),
            # from the two-thread gate on (2^19 quads but the last), the
            # second half of the blocks is decoded on a worker
            pytest.param(3 * 2**19 + 5, id="past-the-gate"),
        ],
    )
    def test_blocked_parts(self, size, rng):
        raw = rng.bytes(size)
        text = base64.b64encode(raw).decode("ascii")
        assert _b64decode(text).tobytes() == raw
        # a character outside the alphabet in the first block, the last
        # block before the last quad, or the last quad
        for position in (0, len(text) - 5, len(text) - 3):
            _assert_decodes_as_b64decode(text[:position] + "*" + text[position + 1 :])

    def test_every_byte_outside_the_alphabet(self, rng):
        text = base64.b64encode(rng.bytes(3000)).decode("ascii")
        outside = [b for b in range(256) if b not in BASE64_ALPHABET]
        assert len(outside) == 192
        for byte in outside:
            position = int(rng.integers(0, len(text) - 4))
            bad = text[:position] + chr(byte) + text[position + 1 :]
            assert not isinstance(_assert_decodes_as_b64decode(bad), bytes)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("QUJD=QUJ", id="pad-in-the-body"),
            pytest.param("QQ==QUJD", id="padded-quad-in-the-body"),
            pytest.param("QUJDQQ", id="missing-padding"),
            pytest.param("QUJDQQ=", id="short-padding"),
            pytest.param("QUJDQQ===", id="extra-padding"),
            pytest.param("QUJD====", id="padding-quad"),
            pytest.param("QUJDQUJ=====", id="extra-padding-quad"),
            pytest.param("QUJDQ", id="length-one-past-a-quad"),
            pytest.param("QUJDQUJDQUJDQ", id="length-not-divisible-by-4"),
            pytest.param("QUJDQR==", id="trailing-bits-set"),
            pytest.param("QUJD\nQUJD", id="line-break"),
            pytest.param("QUJDQUJ\u00e9", id="non-ascii"),
            pytest.param("\u20acUJDQUJD", id="non-ascii-first"),
            pytest.param("QUJD QUJD", id="space"),
            pytest.param("", id="empty"),
        ],
    )
    def test_invalid_and_edge_forms(self, text):
        _assert_decodes_as_b64decode(text)

    def test_every_short_text_over_a_small_alphabet(self):
        # "Q" has low bits set, "/" is the last sextet, "=" is padding or worse
        for size in range(9):
            for chars in itertools.product("Q/=", repeat=size):
                _assert_decodes_as_b64decode("".join(chars))


# ---------------------------------------------------------------------------
# CLI: verify
# ---------------------------------------------------------------------------


class TestCmdVerify:
    def test_identical_files_certify(self, gaussian_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--f", str(gaussian_file), "--g", str(gaussian_file), "--p", "1.0",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["lhs"] == 0.0
        assert report["slack"] == report["rhs"]
        assert report["config"]["p"] == 1.0

    def test_shifted_gaussian_report(self, gaussian_file, shifted_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--f", str(gaussian_file), "--g", str(shifted_file), "--p", "1",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["term_translation"] > 0.0
        assert report["term_modulus"] <= 1e-10
        assert report["slack"] >= -1e-6 * report["rhs"]
        expected_keys = [
            "p", "epsilon", "lhs", "term_modulus", "term_smoothness",
            "term_translation", "rhs", "slack", "squared_form_slack", "config",
        ]
        assert list(report) == expected_keys

    def test_nan_file_is_input_error(self, tmp_path, gaussian_file, capsys):
        payload = json.loads(gaussian_file.read_text())
        im = _samples(payload["values_im"])
        im[0] = math.nan
        lists = _as_list_form(payload)
        lists["values_im"][0] = None
        bad = tmp_path / "nan.json"
        for bad_payload in ({**payload, "values_im": _b64(im)}, lists):
            bad.write_text(json.dumps(bad_payload))
            code = main(["verify", "--f", str(bad), "--g", str(gaussian_file), "--p", "1.0"])
            assert code == 1
            assert "non-finite sample" in capsys.readouterr().err

    def test_grid_mismatch_is_input_error(self, tmp_path, gaussian_file, capsys):
        other = tmp_path / "other.json"
        save_field(other, gaussian(GridSpec.uniform(1, 16.0, 512)))
        code = main(["verify", "--f", str(gaussian_file), "--g", str(other), "--p", "1.0"])
        assert code == 1
        assert "different grids" in capsys.readouterr().err

    def test_invalid_p_is_input_error(self, gaussian_file, capsys):
        code = main(["verify", "--f", str(gaussian_file), "--g", str(gaussian_file), "--p", "2.0"])
        assert code == 1
        assert "p must" in capsys.readouterr().err

    def test_frequency_file_rejected(self, tmp_path, gaussian_file, capsys):
        spec = tmp_path / "spec.json"
        save_field(spec, triangle_spectrum(GRID.dual()))
        code = main(["verify", "--f", str(spec), "--g", str(gaussian_file), "--p", "1.0"])
        assert code == 1
        assert "space" in capsys.readouterr().err

    def test_csv_format_roundtrips(self, gaussian_file, shifted_file, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["verify", "--f", str(gaussian_file), "--g", str(shifted_file), "--p", "1.25",
             "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        header, row = out.read_text().strip().split("\n")
        fields = dict(zip(header.split(","), [float(v) for v in row.split(",")]))
        assert fields["p"] == 1.25
        assert fields["rhs"] == fields["term_modulus"] + fields["term_smoothness"] + fields["term_translation"]

    def test_reports_are_byte_stable(self, gaussian_file, shifted_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--f", str(gaussian_file), "--g", str(shifted_file), "--p", "1.5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_squared_form_violation_fails(self, gaussian_file, shifted_file, monkeypatch):
        # the headline bound holds, its squared form does not: not certified
        def violated(f, g, p, zero_tol=None):
            report = evaluate_theorem(f, g, p, zero_tol)
            return dataclasses.replace(report, squared_form_slack=-1.0)

        monkeypatch.setattr(cli, "evaluate_theorem", violated)
        code = main(["verify", "--f", str(gaussian_file), "--g", str(shifted_file), "--p", "1.0"])
        assert code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "amplitude, command, fragment",
        [
            # an overflowed squared form
            pytest.param(1e160, ["verify", "--p", "1.5"], "non-finite", id="verify-p1.5-1e160"),
            # an rhs of inf, which would certify vacuously
            pytest.param(1e154, ["verify", "--p", "1"], "non-finite", id="verify-p1-1e154"),
            pytest.param(1e154, ["verify", "--p", "1.5"], "non-finite", id="verify-p1.5-1e154"),
            # a slack of inf - inf = NaN
            pytest.param(1e160, ["verify", "--p", "1"], "non-finite", id="verify-p1-1e160"),
            pytest.param(1e160, ["corollary1"], "non-finite", id="corollary1-1e160"),
            # an epsilon of inf
            pytest.param(1e300, ["verify", "--p", "1.5"], "non-finite", id="verify-p1.5-1e300"),
            # an lhs of 0 beside epsilon > 0, with every term 0, which would certify vacuously
            pytest.param(1e-170, ["verify", "--p", "1"], "underflow", id="verify-p1-1e-170"),
            pytest.param(1e-170, ["corollary1"], "underflow", id="corollary1-1e-170"),
            pytest.param(1e-300, ["verify", "--p", "1.5"], "underflow", id="verify-p1.5-1e-300"),
            # an lhs > 0 whose square is subnormal, so no report has significant digits
            pytest.param(1e-160, ["verify", "--p", "1"], "underflow", id="verify-p1-1e-160"),
            pytest.param(1e-160, ["corollary1"], "underflow", id="corollary1-1e-160"),
        ],
    )
    def test_overflow_is_numerical_error(self, amplitude, command, fragment, tmp_path, capsys):
        # an overflow or underflow at this scale is no counterexample, and no report is written
        f = gaussian(GRID, amplitude=amplitude)
        f_path, g_path = tmp_path / "f.json", tmp_path / "g.json"
        save_field(f_path, f)
        save_field(g_path, shift(f, 0.1))
        out = tmp_path / "report.json"
        name, *options = command
        code = main([name, "--f", str(f_path), "--g", str(g_path), "--out", str(out), *options])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical error" in err
        assert fragment in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_block_sums_past_the_double_range_are_numerical_error(self, tmp_path, capsys):
        # |f - g|^2 = 3.6e303 at each of 256^2 points: each block's sum is
        # finite, their total is not.  math.fsum raises OverflowError there;
        # the sum must come out as inf, so that the report names the field
        grid = GridSpec.uniform(2, 8.0, 256)
        f = SampledFunction(grid, np.full(grid.shape, 3e151))
        with pytest.raises(ArithmeticError, match="non-finite lhs, slack, squared_form_slack"):
            evaluate_theorem(f, -f, 1.5)
        f_path, g_path, out = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "report.json"
        save_field(f_path, f)
        save_field(g_path, -f)
        code = main(["verify", "--f", str(f_path), "--g", str(g_path), "--p", "1.5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "non-finite" in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# CLI: corollary1, lemma1, experiment
# ---------------------------------------------------------------------------


def _overflow_pairs():
    for grid_id, grid in [("1d", GRID), ("256x256", GridSpec.uniform(2, 8.0, 256))]:
        yield pytest.param(grid, 1e307, 1.0, id=f"{grid_id}-1e307-vs-unit")
        # f - g = 3.4e308 overflows
        yield pytest.param(grid, 1.7e308, -1.7e308, id=f"{grid_id}-difference")
        yield pytest.param(grid, 1e307, None, id=f"{grid_id}-spectra-only")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, f_amplitude, g_amplitude", _overflow_pairs())
@pytest.mark.parametrize(
    "command",
    [["verify", "--p", "1"], ["verify", "--p", "1.5"], ["corollary1"]],
    ids=["verify-p1", "verify-p1.5", "corollary1"],
)
def test_overflowing_pair_is_numerical_error(
    grid, f_amplitude, g_amplitude, command, tmp_path, capsys
):
    # finite samples whose difference or spectra overflow: the report refuses
    # the non-finite fields, on one thread (1-D) and on two (256^2).  With
    # g_amplitude None, g = f + a unit Gaussian: |f - g|_2 is finite and only
    # the spectra overflow
    f = gaussian(grid, amplitude=f_amplitude)
    g = f + gaussian(grid) if g_amplitude is None else gaussian(grid, amplitude=g_amplitude)
    f_path, g_path, out = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "report.json"
    save_field(f_path, f)
    save_field(g_path, g)
    name, *options = command
    code = main([name, "--f", str(f_path), "--g", str(g_path), "--out", str(out), *options])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ")
    assert "has non-finite" in err and "term_modulus" in err
    assert not out.exists()


class TestCmdCorollary1:
    def test_triangle_flip_certifies(self, tmp_path):
        grid = GridSpec.uniform(1, 256.0, 8192)
        f = inverse_transform(triangle_spectrum(grid.dual()))
        f_path, g_path = tmp_path / "f.json", tmp_path / "g.json"
        save_field(f_path, f)
        save_field(g_path, -f)
        out = tmp_path / "rep.json"
        code = main(["corollary1", "--f", str(f_path), "--g", str(g_path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["support_measure"] == pytest.approx(2.0, abs=0.01)
        assert report["slack"] >= 0.0

    def test_complex_spectrum_rejected(self, tmp_path, capsys):
        f = gaussian(GRID, center=1.0)
        f_path = tmp_path / "f.json"
        save_field(f_path, f)
        code = main(["corollary1", "--f", str(f_path), "--g", str(f_path)])
        assert code == 1
        assert "real-valued" in capsys.readouterr().err

    def test_nan_support_tol_is_input_error(self, gaussian_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        f = str(gaussian_file)
        code = main(["corollary1", "--f", f, "--g", f, "--support-tol", "nan", "--out", str(out)])
        assert code == 1
        assert "support_tol" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_slack_fails(self, gaussian_file, shifted_file, monkeypatch):
        def violated(f, g, support_tol=None):
            report = evaluate_corollary1(f, g, support_tol)
            return dataclasses.replace(report, slack=-1e-3 * report.rhs)

        monkeypatch.setattr(cli, "evaluate_corollary1", violated)
        code = main(["corollary1", "--f", str(gaussian_file), "--g", str(shifted_file)])
        assert code == 2


class TestCmdLemma1:
    def test_scan_500(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["lemma1", "--radius-steps", "500", "--angle-steps", "500", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["min_gap"] >= -1e-12
        assert payload["steps"] == [500, 500]
        assert len(payload["argmin_z"]) == 2

    def test_degenerate_scan(self, capsys):
        assert main(["lemma1", "--radius-steps", "2", "--angle-steps", "2"]) == 0

    def test_single_step_is_input_error(self, capsys):
        code = main(["lemma1", "--radius-steps", "1", "--angle-steps", "100"])
        assert code == 1
        assert ">= 2" in capsys.readouterr().err

    def test_oversized_scan_is_input_error(self, capsys):
        code = main(["lemma1", "--radius-steps", "100000", "--angle-steps", "100000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "supported limit" in err
        assert "Traceback" not in err


class TestCmdExperiment:
    def test_tail_experiment(self, tmp_path):
        out_prefix = tmp_path / "tail"
        code = main(
            ["experiment", "--name", "tail", "--k", "2", "--n", "1", "--out", str(out_prefix)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "tail.json").read_text())
        result = payload["results"][0]
        assert result["pass"] is True
        assert abs(result["fitted_slope"] - 1.5) <= 0.1
        csv_path = tmp_path / "tail.tail_k2_n1.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "parameter,observable"
        assert len(lines) == 1 + len(result["parameter_values"])

    def test_saturated_tail_sweep_is_input_error(self, capsys):
        code = main(["experiment", "--name", "tail", "--sweep", "100,200,300,400"])
        assert code == 1
        assert "eps=100.0" in capsys.readouterr().err

    def test_negative_triangle_amplitude_is_input_error(self, capsys):
        code = main(["experiment", "--name", "triangle", "--sweep=-0.5,-0.4,-0.3,-0.2"])
        assert code == 1
        assert "delta=-0.5 is negative" in capsys.readouterr().err

    def test_translation_with_custom_sweep(self, tmp_path):
        code = main(
            ["experiment", "--name", "translation", "--sweep", "0.001,0.003,0.01,0.03,0.1"]
        )
        assert code == 0

    def test_unknown_name_is_input_error(self):
        assert main(["experiment", "--name", "bogus"]) == 1

    def test_partial_grid_flags_rejected(self, capsys):
        code = main(["experiment", "--name", "translation", "--grid-n", "512"])
        assert code == 1
        assert "together" in capsys.readouterr().err

    def test_custom_grid(self):
        code = main(
            ["experiment", "--name", "translation", "--grid-n", "512", "--grid-extent", "16.0"]
        )
        assert code == 0

    def test_all_writes_every_result(self, tmp_path, capsys):
        code = main(["experiment", "--name", "all", "--out", str(tmp_path / "all")])
        assert code == 0
        payload = json.loads((tmp_path / "all.json").read_text())
        names = [r["name"] for r in payload["results"]]
        assert names == [
            "optimality_l2", "optimality_l1", "triangle", "translation",
            "tail_k2_n1", "tail_k4_n1", "tail_k3_n2",
        ]
        for result in payload["results"]:
            lines = (tmp_path / f"all.{result['name']}.csv").read_text().strip().split("\n")
            assert lines[0] == "parameter,observable"
            assert len(lines) == 1 + len(result["parameter_values"])

    def test_violated_side_certificate_fails(self, monkeypatch, capsys):
        def violated(pair, support_tol=None):
            return dataclasses.replace(bounds._corollary(pair, support_tol), slack=-1.0)

        monkeypatch.setattr(experiments, "_corollary", violated)
        assert main(["experiment", "--name", "optimality"]) == 2
        assert "certification failure: Corollary1Report not certified" in capsys.readouterr().err

    def test_translation_identity_failure_is_numerical_error(self, monkeypatch, capsys):
        # a nonzero modulus term under a pure shift is a numerical fault, not a
        # violated inequality
        def perturbed(f, g, p, zero_tol=None):
            return dataclasses.replace(evaluate_theorem(f, g, p, zero_tol), term_modulus=1e-3)

        monkeypatch.setattr(experiments, "evaluate_theorem", perturbed)
        assert main(["experiment", "--name", "translation"]) == 1
        assert "numerical error: modulus term" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--sweep", "1,2,3,4"], ["--grid-n", "512"], ["--k", "2"], ["--n", "1"]]
    )
    def test_all_takes_no_run_options(self, option, capsys):
        assert main(["experiment", "--name", "all", *option]) == 1
        assert "fixed list" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["optimality", "triangle", "translation"])
    @pytest.mark.parametrize(
        "option, flags",
        [(["--k", "3"], "--k"), (["--n", "2"], "--n"), (["--k", "3", "--n", "2"], "--k, --n")],
        ids=["k", "n", "k-and-n"],
    )
    def test_only_tail_takes_k_and_n(self, name, option, flags, capsys):
        sweep = ["--sweep", "0.001,0.002,0.004,0.008"]
        assert main(["experiment", "--name", name, *sweep, *option]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --name {name} takes no {flags}; only tail does\n"


class TestCmdCertify:
    def test_summary(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main(["certify", "--count", "10", "--seed", "0", "--out", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert set(summary) == {
            "count", "seed", "p_values", "certification_rtol", "failures", "per_family_worst",
        }
        assert summary["count"] == 10
        assert summary["p_values"] == [1.0, 1.25, 1.5, 1.75]
        assert summary["failures"] == 0
        assert len(summary["per_family_worst"]) == 5
        for entry in summary["per_family_worst"].values():
            assert set(entry) == {"min_rel_slack", "min_rel_sq_slack"}

    @pytest.mark.parametrize(
        "options",
        [
            pytest.param(["--count", "1", "--p", "1.0,x"], id="malformed-p"),
            pytest.param(["--count", "0"], id="count-0"),
            pytest.param(["--count", "-3"], id="count-negative"),
            pytest.param(["--count", "1", "--p", ","], id="empty-p"),
            pytest.param(["--count", "1", "--seed", "-1"], id="seed-negative"),
            pytest.param(["--count", "1", "--p", "1,2"], id="p-out-of-range"),
        ],
    )
    def test_malformed_p_is_input_error(self, options):
        assert main(["certify", *options]) == 1

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--seed", "-1"], "error: --seed must be nonnegative, got -1"),
            # the last p is out of range: refused before the first pair is built
            (["--p", "1,2"], "error: p must lie in [1, 2), got 2.0"),
        ],
    )
    def test_refused_before_any_pair(self, options, message, monkeypatch, capsys):
        def built(*args):
            raise AssertionError("a pair was built")

        monkeypatch.setattr(cli, "iter_certification_pairs", built)
        assert main(["certify", "--count", "1", *options]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message + "\n"

    def test_failure_names_its_pair(self, monkeypatch, capsys):
        def violated(pair):
            return [dataclasses.replace(r, slack=-1.0) for r in bounds._theorems(pair)]

        monkeypatch.setattr(cli, "_theorems", violated)
        code = main(["certify", "--count", "2", "--seed", "7", "--p", "1.5"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("FAIL gaussian pair=0 p=1.5 seed=7:")
        assert err[1].startswith("FAIL shifted_gaussian pair=1 p=1.5 seed=7:")


def _family_builders(f_amplitude, g_amplitude):
    # one family whose pairs overflow or underflow the pass at every p
    def build(rng, grid):
        f = gaussian(grid, amplitude=f_amplitude)
        return f, (shift(f, 0.1) if g_amplitude is None else gaussian(grid, amplitude=g_amplitude))

    return {"scaled": build}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "f_amplitude, g_amplitude, fragment",
    [
        pytest.param(1e307, 1.0, "has non-finite", id="overflow-1e307"),
        pytest.param(1e-160, None, "underflow", id="underflow-1e-160"),
    ],
)
def test_certify_refuses_a_numerical_fault(
    f_amplitude, g_amplitude, fragment, monkeypatch, capsys
):
    # the shared pass at all four p, under the evaluators' error state
    monkeypatch.setattr(experiments, "FAMILY_BUILDERS", _family_builders(f_amplitude, g_amplitude))
    assert main(["certify", "--count", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical error: ") and fragment in err


class TestOnePassPerPair:
    """Each pair is transformed once, however many p or forms are read from it."""

    @pytest.fixture
    def transforms(self, monkeypatch, cleared_record):
        calls = []
        centred = bounds._centred

        def counted(*args, **kwargs):
            calls.append(args[0])
            return centred(*args, **kwargs)

        monkeypatch.setattr(bounds, "_centred", counted)
        return calls

    def test_certify(self, transforms, capsys):
        assert main(["certify", "--count", "10", "--seed", "0"]) == 0
        assert len(transforms) == 20

    @pytest.mark.parametrize("name, pairs", [("optimality", 5), ("triangle", 8)])
    def test_experiment(self, name, pairs, transforms, capsys):
        assert main(["experiment", "--name", name]) == 0
        assert len(transforms) == 2 * pairs

    def test_one_report(self, transforms):
        f = gaussian(GRID)
        evaluate_theorem(f, shift(f, 0.1), 1.5)
        assert len(transforms) == 2


class TestClosedStdout:
    """A reader that closes stdout early (``phasestab certify | head -1``)
    leaves every exit code to the verdict, with no ``error:`` line."""

    @pytest.fixture
    def closed_main(self, tmp_path, monkeypatch):
        """``main`` with a stdout whose every write raises BrokenPipeError."""
        path = tmp_path / "stdout"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        writes = []

        class Closed(io.TextIOBase):
            def write(self, text):
                writes.append(text)
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        def run(argv):
            # patched in the test's own call: capture sets sys.stdout before it
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", Closed())
                return main(argv)

        yield run
        assert writes
        # the interpreter's flush at exit would now go to devnull
        os.write(fd, b"at exit")
        os.close(fd)
        assert path.read_bytes() == b""

    def test_verify_certified(self, closed_main, gaussian_file, shifted_file, capsys):
        argv = ["verify", "--f", str(gaussian_file), "--g", str(shifted_file), "--p", "1.5"]
        assert closed_main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_certify_failed(self, closed_main, tmp_path, monkeypatch, capsys):
        def violated(pair):
            return [dataclasses.replace(r, slack=-1.0) for r in bounds._theorems(pair)]

        monkeypatch.setattr(cli, "_theorems", violated)
        out = tmp_path / "summary.json"
        assert closed_main(["certify", "--count", "1", "--p", "1.5", "--out", str(out)]) == 2
        assert json.loads(out.read_text())["failures"] == 1
        err = capsys.readouterr().err
        assert err.startswith("FAIL gaussian pair=0 p=1.5 seed=0:") and "error:" not in err

    def test_lemma1(self, closed_main, capsys):
        assert closed_main(["lemma1", "--radius-steps", "50", "--angle-steps", "50"]) == 0
        assert capsys.readouterr().err == ""


class TestUsage:
    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_missing_required_flag(self):
        assert main(["verify", "--f", "x.json"]) == 1

    def test_nonexistent_file(self, capsys):
        code = main(["verify", "--f", "/nope/a.json", "--g", "/nope/b.json", "--p", "1.0"])
        assert code == 1
