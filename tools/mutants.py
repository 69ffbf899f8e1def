"""Run the tier-1 suite against one-token mutants of the library.

Each mutant edits one constant, operator, loop bound or literal in one file:
the bound in ``src/phasestab/bounds.py``, the block runner, the fsum of its
block sums and that sum's overflow guard, the slabs, the centred transform
and its stages, ``shift``'s separable factor, the dual's link, the fields'
finiteness check and the error state in which ``fourier_transform`` leaves
that check to refuse an overflow without a warning in
``src/phasestab/grid.py``, ``gaussian``'s
separable factor in ``src/phasestab/experiments.py``, the blocked half-disk gap in
``src/phasestab/geometry.py``, or the text that ``save_field`` joins, the
reader's split of that text and its base64 decoder in
``src/phasestab/io.py``.  It is applied
to a fresh copy of ``src/``, ``tests/`` and ``pyproject.toml`` in a
temporary directory, never to the working tree, and tier-1 runs in that
copy with ``-x``.  A mutant that passes tier-1 survives.  The unmutated
copy runs first and must pass.

    python tools/mutants.py

Exit status: 0 when every mutant is killed, 1 when one survives or the
unmutated copy fails, 2 when a mutant no longer matches the source.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUNDS = Path("src/phasestab/bounds.py")
EXPERIMENTS = Path("src/phasestab/experiments.py")
GEOMETRY = Path("src/phasestab/geometry.py")
GRID = Path("src/phasestab/grid.py")
IO = Path("src/phasestab/io.py")
COPIED = ("src", "tests", "pyproject.toml")

# (name, the function whose body holds the edit or None for the module, old, new);
# ``old`` must occur exactly once in that scope of the mutant's file.
BOUNDS_MUTANTS = [
    ("theorem modulus 2 -> 1.5", "_reports",
     "term_modulus = 2.0 *", "term_modulus = 1.5 *"),
    ("theorem modulus 2 -> 3", "_reports",
     "term_modulus = 2.0 *", "term_modulus = 3.0 *"),
    ("corollary modulus 2 -> 1.5", "_corollary",
     "term_modulus = 2.0 *", "term_modulus = 1.5 *"),
    ("h: 8 -> 4", "_smoothness",
     "math.sqrt(_MASS_WEIGHT * mass)", "math.sqrt(4.0 * mass)"),
    ("h: +x -> +0.5x", "_smoothness",
     "(x if p > 1.0 else 0.0)", "(0.5 * x if p > 1.0 else 0.0)"),
    ("regime factor 10 -> 5, at every site", None,
     "_REGIME = 10.0", "_REGIME = 5.0"),
    ("sub-level ties: <= -> <", "_sublevel_masses",
     "block > threshold", "block >= threshold"),
    # each threshold's zeroed set must hold the one before it
    ("sub-level thresholds taken in ascending order", "_sublevel_masses",
     "reverse=True", "reverse=False"),
    ("translation 2 -> 1.5", "_translation",
     "return 2.0 *", "return 1.5 *"),
    ("corollary translation 2 -> 1", "_corollary",
     "term_translation = 2.0 *", "term_translation = 1.0 *"),
    ("corollary band limit 30 -> 15", "_corollary",
     "30.0 * math.sqrt(L)", "15.0 * math.sqrt(L)"),
    ("corollary real-spectrum tolerance 1e-8 -> 1e-6", "_corollary",
     "im_peak > 1e-8 * peak", "im_peak > 1e-6 * peak"),
    ("exceptional set 10 eps -> 5 eps", "exceptional_set",
     "_REGIME * epsilon", "5.0 * epsilon"),
    ("exceptional set |F| ties: >= -> >", "exceptional_set",
     "magF >= _REGIME", "magF > _REGIME"),
    ("exceptional set |F - G| ties: >= -> >", "exceptional_set",
     "magdiff >= epsilon", "magdiff > epsilon"),
    ("squared form modulus 2 -> 3", "_reports",
     "2.0 * theorem.modulus_l2**2", "3.0 * theorem.modulus_l2**2"),
    # the weight of Im(conj(F) G / |F|)^2 in the squared form and in
    # geometry's per-frequency estimate
    ("tangential weight 6/5 -> 1, at every site", None,
     "_TANGENTIAL_WEIGHT = 6.0 / 5.0", "_TANGENTIAL_WEIGHT = 5.0 / 5.0"),
    ("tangential weight 6/5 -> 2, at every site", None,
     "_TANGENTIAL_WEIGHT = 6.0 / 5.0", "_TANGENTIAL_WEIGHT = 10.0 / 5.0"),
    ("squared form |f-g|_p^2 dropped", "_reports",
     "(epsilon**2 if p > 1.0 else 0.0)", "(0.0 if p > 1.0 else 0.0)"),
    # the weight of the sub-level mass in h and in the squared form
    ("mass weight 8 -> 4, at every site", None,
     "_MASS_WEIGHT = 8.0", "_MASS_WEIGHT = 4.0"),
    ("CERTIFICATION_RTOL 1e-6 -> 1e-2", None,
     "CERTIFICATION_RTOL = 1e-6", "CERTIFICATION_RTOL = 1e-2"),
    # the pair pass leaves overflow to the reports, so this is its only guard
    ("report refuses non-finite fields", None, "if bad:", "if False:"),
    # the pair pass is the one owner of underflow, for both evaluators
    ("pair pass refuses no underflow", "_pair",
     "if lhs < math.sqrt(sys.float_info.min)", "if lhs < 0.0"),
    ("pair pass refuses only lhs = 0", "_pair",
     "if lhs < math.sqrt(sys.float_info.min)", "if lhs == 0.0"),
    # one pass serves every p of a pair: each p must read its own eps and mass
    ("every report reads the first p's eps", "_reports",
     "zip(theorem.ps, theorem.epsilons, masses)",
     "zip(theorem.ps, [theorem.epsilons[0]] * len(theorem.ps), masses)"),
    ("sub-level masses zipped in reverse", "_reports",
     "theorem.epsilons, masses)", "theorem.epsilons, masses[::-1])"),
    # the exponents are (2, *ps): lhs's square, then each p
    ("difference stage sums the first p's power at every p", "_distances",
     "for q in exponents]", "for q in exponents[:2] + exponents[1:2] * (len(exponents) - 2)]"),
    # evaluate_theorem's record of the last pair: a hit must be the same f, g
    # and zero_tol, and must read its own p's eps
    ("record's key ignores g", "evaluate_theorem",
     " and record[1]() is g", ""),
    ("record's key ignores zero_tol", "evaluate_theorem",
     " and record[2] == tol", ""),
    ("a hit reuses the first p's eps", "evaluate_theorem",
     ", epsilons=tuple(_distances(f, g, (p,)))", ""),
]
# every elementwise stage of the evaluators, the spectrum helpers and
# lemma1_gap runs through the block runner, shift and gaussian through the
# slabs, and every transform through the centred transform, a 2-D or 3-D one
# from the gate on in its two stages
GRID_MUTANTS = [
    ("block runner's worker repeats the caller's half", "_run_parts",
     "map(step, parts[middle:])", "map(step, parts[:middle])"),
    # the same parts on each thread wherever their count is even; killed by
    # the odd part counts of the runner's tests
    ("block runner's middle rounds up", "_run_parts",
     "middle = len(parts) // 2", "middle = (len(parts) + 1) // 2"),
    # killed at exactly _TWO_THREADS_MIN_POINTS, where the worker must start
    ("block runner's gate written with <=", "_run_parts",
     "if size < _TWO_THREADS_MIN_POINTS or", "if size <= _TWO_THREADS_MIN_POINTS or"),
    # the stages of the pair pass's F and G then open workers of their own
    ("block runner nests", "_run_parts",
     " or _IN_PARTS.get()", ""),
    # the first two-thread call leaves every later call on one thread
    ("block runner never leaves its parts", "_run_parts",
     "_IN_PARTS.reset(token)", "pass"),
    # killed at exactly _TWO_THREADS_MIN_POINTS, where the steps widen
    ("step size's gate written with >", "_block",
     "size >= _TWO_THREADS_MIN_POINTS", "size > _TWO_THREADS_MIN_POINTS"),
    # block sums added one after another: killed by the sums of many blocks
    # that pin the rule's bits
    ("math.fsum written as sum", "_fsum",
     "return math.fsum(sums)", "return sum(sums)"),
    # fsum's OverflowError then escapes in place of the report's refusal
    ("a total past the double range raises", "_fsum",
     "return math.inf", "raise"),
    # every sum is then its first block's
    ("every sum takes the lone-block shortcut", "_sum_blocks",
     "if len(sums) == 1:", "if len(sums) >= 1:"),
    # np.fft.fftn's order; on n-D grids the other order rounds differently
    ("centred transform runs its axes first axis first", "_centred_in_place",
     "reversed(range(a.ndim))", "range(a.ndim)"),
    # a slab skips the row after it; killed by the slab tests and the parity
    # tests of shift and gaussian
    ("slab step off by one", "_slabs",
     "range(0, shape[0], rows)", "range(0, shape[0], rows + 1)"),
    # a 3-D shift then moves along axes 0 and 1 only
    ("shift's separable factor drops the last axis", "shift",
     "functools.reduce(np.multiply, others)", "functools.reduce(np.multiply, others[:1])"),
    # negates the input and the output: only the sign of an exact zero moves
    ("sign flips select the other parity", "_corners",
     "sum(corner) % 2 == parity", "sum(corner) % 2 != parity"),
    # the dual of the dual is then formed by the formula, which rounds
    ("dual drops its link back to its grid", "_dual",
     'dual.__dict__["_dual"] = self', "pass"),
    # every run starting at an odd plane keeps the wrong output signs
    ("stage B flips the output signs of every run as of plane 0", "_centred_in_place",
     "_flip_signs(scratch, (parity + s.start) % 2)", "_flip_signs(scratch, parity)"),
    # runs sized and counted along axis 0: where N0 < N1 the last planes
    # are never transformed along axis 0
    ("stage B's runs are the slabs of the unswapped shape", "_centred_in_place",
     "(a.shape[1], a.shape[0], *a.shape[2:])", "a.shape"),
    # killed by the slabs that start at odd rows (one- and three-row slabs)
    ("stage A flips the input signs of every slab as of row 0", "_centred_in_place",
     "_flip_signs(slab, (1 + s.start) % 2)", "_flip_signs(slab, 1)"),
    # fftn's order; killed by the 3-D parity tests
    ("stage A runs its axes first axis first", "_centred_in_place",
     "reversed(range(1, a.ndim))", "range(1, a.ndim)"),
    # a lone 2-D transform from the gate on then runs on one thread
    ("only 3-D grids run in stages", "_in_stages",
     "len(shape) > 1", "len(shape) == 3"),
    # the one judge of a field's finiteness: an overflowed transform or sum,
    # or a NaN sample, is then kept as a field
    ("fields keep non-finite samples", "_take",
     "if not _all_finite(vals):", "if False:"),
    # numpy then warns before the finiteness check refuses an overflowed
    # spectrum; a scope starts at its def line, below the decorator, so this
    # edit is scoped to the module
    ("fourier_transform warns on overflow", None,
     '@np.errstate(over="ignore", invalid="ignore")\ndef fourier_transform(',
     "def fourier_transform("),
]
# gaussian's separable factor must take every axis
EXPERIMENTS_MUTANTS = [
    # a 3-D gaussian is then constant along axis 2
    ("gaussian's separable factor drops the last axis", "gaussian",
     "functools.reduce(np.multiply, others)", "functools.reduce(np.multiply, others[:1])"),
]
GEOMETRY_MUTANTS = [
    # 2**14 is grid._BLOCK, the step below the gate
    ("lemma1_gap skips the last partial block of the gap pass", "lemma1_gap",
     "_run_blocks(form, out.size)", "_run_blocks(form, out.size - out.size % 2**14)"),
    # at the gate the second half of the blocks is the worker's
    ("lemma1_gap drops the worker half's admissibility", "lemma1_gap",
     "if not all(checked):", "if not all(checked[: len(checked) // 2]):"),
]
IO_MUTANTS = [
    # the files still load the same (the reader shares the separator, and a
    # reordered file goes through json.loads); only the pinned bytes can tell
    ("save_field drops the space after the separator", None,
     """_RE_AFTER_HEADER = ', "values_re": "'""", """_RE_AFTER_HEADER = ',"values_re": "'"""),
    ("save_field writes values_im before values_re", "save_field",
     "_RE_AFTER_HEADER, re, _IM_AFTER_RE, im,",
     """', "values_im": "', im, '", "values_re": "', re,"""),
    # the decoder's packing of a quad: its second sextet lands one bit high
    ("decoder shifts the second sextet by 5", "_decode_quads",
     "(quad & 0x3F00) << 4", "(quad & 0x3F00) << 5"),
    # a character outside the alphabet then decodes from its table byte 0xFF
    ("decoder takes characters outside the alphabet", "_decode_quads",
     'if b"\\xff" in sextets:', "if False:"),
    # an escape in a sample string then reaches the decoder as a backslash
    ("reader splits samples that hold a quote or backslash", "_split",
     """if '"' in re or "\\\\" in re or '"' in im or "\\\\" in im:""", "if False:"),
    # a header with a duplicate key or extra whitespace then takes the split
    ("reader takes any header with the five keys", "_split",
     " or json.dumps(header) != head", ""),
    # a raw control character in a sample is then named as bad base64
    ("a refusal of the split is not read again through json.loads", "load_field",
     "if split is None:", "if True:"),
]
# (name, the file, scope, old, new)
MUTANTS = (
    [(name, BOUNDS, *edit) for name, *edit in BOUNDS_MUTANTS]
    + [(name, GRID, *edit) for name, *edit in GRID_MUTANTS]
    + [(name, EXPERIMENTS, *edit) for name, *edit in EXPERIMENTS_MUTANTS]
    + [(name, GEOMETRY, *edit) for name, *edit in GEOMETRY_MUTANTS]
    + [(name, IO, *edit) for name, *edit in IO_MUTANTS]
)


def mutate(source: str, scope: str | None, old: str, new: str) -> str:
    """``source`` with the one occurrence of ``old`` in ``scope`` replaced by ``new``."""
    lines = source.splitlines(keepends=True)
    start, end = 0, len(lines)
    if scope is not None:
        found = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == scope
        ]
        if len(found) != 1:
            raise LookupError(f"{len(found)} functions named {scope}")
        start, end = found[0].lineno - 1, found[0].end_lineno
    body = "".join(lines[start:end])
    if body.count(old) != 1:
        raise LookupError(f"{old!r} occurs {body.count(old)} times in {scope or 'the module'}")
    return "".join(lines[:start]) + body.replace(old, new) + "".join(lines[end:])


def run_tier1(target: Path | None = None, source: str = "") -> tuple[int, str]:
    """Tier-1's exit code and output on a copy of the tree, with ``source`` as
    ``target`` when one is given."""
    with tempfile.TemporaryDirectory(prefix="phasestab-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / name)
        if target is not None:
            (tree / target).write_text(source)
        pythonpath = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import phasestab; print(phasestab.__file__)"],
            cwd=tree, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(tree.resolve()):
            raise RuntimeError(f"the copy imports phasestab from {where}, not from its own src/")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout + proc.stderr


def first_failure(output: str) -> str:
    return next((line for line in output.splitlines() if line.startswith(("FAILED", "ERROR"))), "")


def main() -> int:
    mutants = []
    for name, target, scope, old, new in MUTANTS:
        try:
            mutants.append((name, target, mutate((ROOT / target).read_text(), scope, old, new)))
        except LookupError as exc:
            print(f"a mutant no longer matches {target}: {exc}", file=sys.stderr)
            return 2
    code, output = run_tier1()
    if code != 0:
        print(f"the unmutated copy fails tier-1 (exit {code}):\n{output}", file=sys.stderr)
        return 1
    survivors = []
    for name, target, mutant in mutants:
        code, output = run_tier1(target, mutant)
        if code == 0:
            survivors.append(name)
            print(f"SURVIVED  {name}", flush=True)
        elif code == 1:
            print(f"killed    {name}: {first_failure(output)}", flush=True)
        else:
            print(f"tier-1 did not run for {name} (exit {code}):\n{output}", file=sys.stderr)
            return 1
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
