"""The array CSV parse and the row-by-row parse agree on every file.

Ensemble and density CSVs are parsed with numpy first
(``density._load_csv_table``); files that the array parse refuses go to
the row parser. Forcing the row parser on the same bytes, by patching
``density._load_csv_table`` for both formats, must give the same arrays,
or the same error message.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fprom import density, langevin
from fprom.density import read_density_csv

_TOKENS = [
    "0", "1", "2", "-1", "+3", " 4", "5 ", "0.5", "-0.0", "1e3", "3.0", "nan", "inf",
    "1e400", '"1"', "", " ", "1_0", "0x1", "abc", "9007199254740993", "9007199254740992",
    "99999999999999999999", "\t2", "# c",
]


def _outcome(read, path):
    try:
        result = read(path)
    except Exception as exc:  # compare any refusal by type and text
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, tuple):
        return ("ok",) + tuple((a.shape, a.tobytes()) for a in result)
    return ("ok", result.grid, result.values.tobytes())


def _same_with_row_parser(read, path):
    fast = _outcome(read, path)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(density, "_load_csv_table", lambda path, dtype: None)
        rows = _outcome(read, path)
    assert fast == rows


@st.composite
def _ensemble_rows(draw):
    ids = st.sampled_from(["0", "1", "-7", "9007199254740993"])
    times = st.sampled_from(["0.0", "0.5", "1.0"])
    ids = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    times = draw(st.lists(times, min_size=2, max_size=3, unique=True))
    rows = [[i, t, repr(draw(st.floats(-5, 5)))] for i in ids for t in times]
    return draw(st.permutations(rows))


@st.composite
def _density_rows(draw):
    n = draw(st.integers(7, 10))
    return [[repr(0.25 * i), repr(draw(st.floats(0, 3)))] for i in range(n)]


@st.composite
def _csv_text(draw, header, make_rows):
    rows = [list(r) for r in draw(make_rows)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_TOKENS))
        rows[i] = draw(st.sampled_from([row, row + ["1"], row[:-1], [""], ["  "]]))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    head = draw(st.sampled_from([header, header, header, " " + header.replace(",", " , ")]))
    return head + sep + sep.join(",".join(r) for r in rows) + draw(st.sampled_from([sep, ""]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_csv_text("traj_id,t,x", _ensemble_rows()))
def test_ensemble_array_parse_matches_row_parse(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ens") / "e.csv"
    path.write_bytes(text.encode())
    _same_with_row_parser(langevin._read_ensemble_arrays, path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_csv_text("x,f", _density_rows()))
def test_density_array_parse_matches_row_parse(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("den") / "f.csv"
    path.write_bytes(text.encode())
    _same_with_row_parser(read_density_csv, path)


def test_well_formed_files_take_the_array_parse(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("traj_id,t,x\n1,0.0,2.0\n0,0.0,1.0\n")
    table = density._load_csv_table(path, langevin._ENSEMBLE_DTYPE)
    assert table is not None
    assert np.array_equal(table["traj_id"], [1, 0])


@pytest.mark.parametrize(
    "text",
    [
        "traj_id,t,x\n0,0.0,2.0\n0,0.0,1.0\n0,0.5,3.0\n",
        "traj_id,t,x\n1,0.5,1.0\n0,0.0,2.0\n1,0.0,3.0\n",
        "traj_id,t,x\n0,-0.0,1.0\n0,0.5,2.0\n1,0.0,3.0\n1,0.5,4.0\n",
    ],
    ids=["repeated_time", "ragged", "signed_zero_time"],
)
def test_ensemble_ties_and_ragged_axes_match_row_parse(tmp_path, text):
    path = tmp_path / "e.csv"
    path.write_text(text)
    _same_with_row_parser(langevin._read_ensemble_arrays, path)
