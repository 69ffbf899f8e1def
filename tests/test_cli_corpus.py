"""CLI byte corpus: stdout, stderr, exit code and every ``--out`` file of a
fixed set of ``phasestab`` commands, pinned byte for byte.

The corpus in ``tests/data/cli_corpus.json`` holds the output of commands run
in-process through ``cli.main`` on field files built in code here and saved
with ``save_field``:

* ``verify``, JSON and CSV, at the four default p, on a 1-D (1024 points) and
  a 2-D (256^2) Gaussian and its shift by 0.1;
* ``corollary1`` on the 1-D Gaussian pair and on ``optimality_family`` at
  L = 4;
* every pair at amplitudes 1, 1e-160 and 1e160: the 1e-160 pairs, whose
  |f - g|_2^2 underflows, exit 1, as do the overflows at 1e160;
* ``certify --count 50 --seed 3``, ``experiment --name all`` and ``lemma1``
  at small step counts.

Each command runs with the working directory set to a fresh temporary
directory and relative paths, so the ``config`` echo of a report is the same
wherever the suite runs.

Under the numpy version that wrote the corpus every byte must match.  Under
another numpy, whose FFT may round differently, each decimal float in a text
must lie within 4 ulps of the corpus's and every other byte must match.  A
change that moves the CLI's output on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_cli_corpus.py

and names every changed entry in CHANGES.md.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from phasestab.cli import DEFAULT_P_VALUES, main
from phasestab.experiments import DEFAULT_GRID, OPTIMALITY_GRID, gaussian, optimality_family
from phasestab.grid import GridSpec, shift
from phasestab.io import save_field

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"
ULPS = 4
AMPLITUDES = {"1": 1.0, "1e-160": 1e-160, "1e160": 1e160}
# a decimal float as repr writes it: a point or an exponent, so that counts,
# seeds and exit codes stay exact text
FLOAT = re.compile(r"(-?(?:\d+\.\d*(?:e[+-]?\d+)?|\d+e[+-]?\d+))")


def _pairs(amplitude: float) -> dict:
    """name -> (f, g) of the corpus's pairs at ``amplitude``."""
    pairs = {}
    for name, grid in (("1d", DEFAULT_GRID), ("2d", GridSpec.uniform(2, 8.0, 256))):
        f = gaussian(grid, amplitude=amplitude)
        pairs[name] = (f, shift(f, 0.1))
    f, g = optimality_family(OPTIMALITY_GRID, 4.0)
    pairs["optimality"] = (f * amplitude, g * amplitude)
    return pairs


def _commands():
    """(label, argv) of every command of the corpus, in order."""
    for amp in AMPLITUDES:
        for name in ("1d", "2d"):
            files = ["--f", f"{name}-{amp}-f.json", "--g", f"{name}-{amp}-g.json"]
            for fmt in ("json", "csv"):
                for p in DEFAULT_P_VALUES:
                    out = ["--out", f"verify.{fmt}"] if p == 1.0 else []
                    yield (f"verify/{name}/{amp}/{fmt}/p={p!r}",
                           ["verify", *files, "--p", repr(p), "--format", fmt, *out])
        for name in ("1d", "optimality"):
            files = ["--f", f"{name}-{amp}-f.json", "--g", f"{name}-{amp}-g.json"]
            yield f"corollary1/{name}/{amp}", ["corollary1", *files, "--out", "corollary1.json"]
    yield "certify", ["certify", "--count", "50", "--seed", "3", "--out", "certify.json"]
    yield "experiment", ["experiment", "--name", "all", "--out", "P"]
    yield "lemma1", ["lemma1", "--radius-steps", "40", "--angle-steps", "30", "--out", "lemma1.json"]


def _run(argv) -> dict:
    """``main(argv)``'s exit code, stdout and stderr, and the files it wrote
    in the working directory (which it then removes)."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for name in sorted(set(os.listdir()) - before):
        files[name] = Path(name).read_text()
        os.remove(name)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def build_corpus(workdir: Path) -> dict:
    """label -> the output of each command, run with ``workdir`` as the
    working directory and the pairs' files saved in it."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for amp, amplitude in AMPLITUDES.items():
            for name, (f, g) in _pairs(amplitude).items():
                save_field(f"{name}-{amp}-f.json", f)
                save_field(f"{name}-{amp}-g.json", g)
        return {label: {"argv": argv, **_run(argv)} for label, argv in _commands()}
    finally:
        os.chdir(previous)


def _write(path: Path) -> None:
    with tempfile.TemporaryDirectory(prefix="phasestab-cli-corpus-") as tmp:
        entries = build_corpus(Path(tmp))
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        '{"numpy": ' + json.dumps(np.__version__) + ', "entries": {\n'
        + ",\n".join(lines) + "\n}}\n"
    )


def _text_matches(actual: str, expected: str, exact: bool) -> bool:
    """Whether ``actual`` is ``expected``, or under another numpy the same
    text with each decimal float within ``ULPS`` ulps."""
    if exact or actual == expected:
        return actual == expected
    a, e = FLOAT.split(actual), FLOAT.split(expected)
    if len(a) != len(e):
        return False
    # odd positions are the floats, even ones the text between them
    for index, (x, y) in enumerate(zip(a, e)):
        if index % 2 == 0:
            if x != y:
                return False
        elif abs(float(x) - float(y)) > ULPS * np.spacing(max(abs(float(x)), abs(float(y)))):
            return False
    return True


def _mismatches(actual: dict, expected: dict, exact: bool) -> list[str]:
    bad = []
    for label, want in expected.items():
        got = actual[label]
        if got["argv"] != want["argv"] or got["exit"] != want["exit"]:
            bad.append(f"{label}: exit {got['exit']} != {want['exit']}")
        if got["files"].keys() != want["files"].keys():
            bad.append(f"{label}: files {sorted(got['files'])} != {sorted(want['files'])}")
            continue
        texts = [("stdout", got["stdout"], want["stdout"]), ("stderr", got["stderr"], want["stderr"])]
        texts += [(name, got["files"][name], text) for name, text in want["files"].items()]
        bad += [f"{label}: {name} {a!r} != {e!r}" for name, a, e in texts
                if not _text_matches(a, e, exact)]
    return bad


def test_float_tokens_leave_counts_and_names_exact():
    text = '{"count": 50, "lhs": 1.25e-05, "x": -0.0, "y": 1e-160, "version": "0.1.0"}'
    floats = FLOAT.split(text)[1::2]
    assert floats == ["1.25e-05", "-0.0", "1e-160", "0.1"]
    assert _text_matches(text.replace("1.25e-05", "1.2500000000000003e-05"), text, exact=False)
    assert not _text_matches(text.replace("1.25e-05", "1.2500000000001e-05"), text, exact=False)
    assert not _text_matches(text.replace("50", "51"), text, exact=False)
    assert not _text_matches(text.replace("1.25e-05", "1.2500000000000003e-05"), text, exact=True)


def test_cli_output_matches_corpus(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    exact = corpus["numpy"] == np.__version__
    actual = build_corpus(tmp_path)
    assert list(actual) == list(corpus["entries"])
    bad = _mismatches(actual, corpus["entries"], exact)
    assert not bad, f"{len(bad)} outputs moved ({'exact' if exact else f'{ULPS} ulps'}):\n" + "\n".join(bad[:20])


if __name__ == "__main__":
    _write(CORPUS)
