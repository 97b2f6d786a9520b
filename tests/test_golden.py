"""Committed golden outputs: `fcco run` and `fcco sweep-rate` on small configs
against the files in tests/golden/expected.

Strings and integer columns compare exactly.  Floats compare bitwise when
numpy, its BLAS and the CPU features numpy dispatches on match the stamp the
fixture was generated under, and within GOLDEN_RTOL relative otherwise: a
different BLAS or SIMD kernel may round a dot product differently.  A change
that moves outputs on purpose regenerates the fixture with
tests/golden/generate.py and says which files moved."""

import csv
import importlib.util
import json
import math
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

GOLDEN_RTOL = 1e-12
# the columns of record and aggregate files that hold strings or integers
EXACT_COLUMNS = {"solver", "seed", "t", "oracle_count", "wall_nanos"}


def _same_float(a, b, rtol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def _compare_json(got, want, rtol, where):
    if isinstance(want, float) and isinstance(got, float):
        assert _same_float(got, want, rtol), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (where, got, want)
        for key in want:
            _compare_json(got[key], want[key], rtol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, rtol, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _compare_csv(got_path, want_path, rtol):
    with open(got_path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    with open(want_path, newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0], (want_path.name, got[0], want[0])
    assert len(got) == len(want), (want_path.name, len(got), len(want))
    for line, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        for col, g, w in zip(want[0], g_row, w_row, strict=True):
            where = (want_path.name, line, col)
            if col in EXACT_COLUMNS:
                assert g == w, (where, g, w)
            else:
                assert _same_float(float(g), float(w), rtol), (where, g, w)


def compare_outputs(got_dir, want_dir, bitwise):
    """Assert that `got_dir` holds the files of `want_dir` with equal values:
    bitwise, or within GOLDEN_RTOL relative."""
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in got_dir.iterdir()) == names
    rtol = 0.0 if bitwise else GOLDEN_RTOL
    for name in names:
        got, want = got_dir / name, want_dir / name
        if name.endswith(".csv"):
            _compare_csv(got, want, rtol)
        else:
            with open(got, encoding="utf-8") as g, open(want, encoding="utf-8") as w:
                _compare_json(json.load(g), json.load(w), rtol, name)
        if bitwise:
            assert got.read_bytes() == want.read_bytes(), name


def _fixture_stamp():
    with open(GOLDEN / "stamp.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("config", generate.CONFIGS, ids=lambda p: p.stem)
def test_outputs_equal_the_golden_files(config, tmp_path):
    out = tmp_path / config.stem
    generate.run_case(config, out)
    compare_outputs(out, GOLDEN / "expected" / config.stem,
                    bitwise=generate.stamp() == _fixture_stamp())


def test_golden_comparison_holds_floats_to_the_stated_tolerance(tmp_path):
    # the path taken under another numpy or BLAS: a relative change of 1e-13
    # in one objective passes, 1e-11 fails, and a changed integer fails
    want = GOLDEN / "expected" / "gdro_csv"
    name = "alexr__seed1.csv"
    with open(want / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("objective")

    def edited(edit):
        got = tmp_path / "got"
        got.mkdir(exist_ok=True)
        for path in want.iterdir():
            (got / path.name).write_bytes(path.read_bytes())
        changed = [list(row) for row in rows]
        edit(changed[-1])
        with open(got / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(changed)
        return got

    def scale(factor):
        def edit(row):
            row[col] = f"{float(row[col]) * factor:.17g}"
        return edit

    compare_outputs(edited(scale(1.0 + 1e-13)), want, bitwise=False)
    with pytest.raises(AssertionError):
        compare_outputs(edited(scale(1.0 + 1e-13)), want, bitwise=True)
    with pytest.raises(AssertionError):
        compare_outputs(edited(scale(1.0 + 1e-11)), want, bitwise=False)
    with pytest.raises(AssertionError):
        compare_outputs(edited(lambda row: row.__setitem__(0, row[0] + "x")), want, bitwise=False)
