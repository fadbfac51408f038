"""The detect-output writers: the score and ranked CSVs, the matrix CSV and
the heatmap SVG are byte-identical to the former row-by-row writers kept in
`oracles`, and every SVG is well-formed XML that gives its text back."""

import datetime as dt
import tempfile
import tracemalloc
from types import SimpleNamespace
from xml.dom import minidom

import numpy as np
from hypothesis import example, given, strategies as st

import oracles
import vrf_sentinel.detectors as det
import vrf_sentinel.modmatrix as mm
from vrf_sentinel import plots
from vrf_sentinel.detectors.scoring import ScoreMatrix
from vrf_sentinel.records import ChangeType

D0 = dt.date(2019, 1, 3)

# Locale text with the characters CSV must quote, XML must escape, and XML
# cannot hold at all.
LOCALE = st.text(st.sampled_from(list('ab ,"\n\r&<>\'Äé\x01')), max_size=5)
SCORE = st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e308, -1e308, 0.0, 1.5]) | st.floats()
# both sides of the heatmap's row-label stride: every row up to 40 rows, every n // 20th above
N_ROWS = st.integers(1, 4) | st.integers(39, 45)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@given(N_ROWS, st.integers(1, 4), st.booleans(), st.data())
def test_writers_match_row_by_row_oracles(n_rows, n_cols, constant, data):
    locales = data.draw(st.lists(LOCALE, min_size=n_rows, max_size=n_rows))
    title = data.draw(LOCALE)
    fill = data.draw(SCORE)
    grid = np.array(
        [[fill if constant else data.draw(SCORE) for _ in range(n_cols)] for _ in locales]
    )
    cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    highlight = data.draw(st.sets(cells, max_size=3))
    counts = np.array([[data.draw(st.integers(0, 2**62)) for _ in range(n_cols)] for _ in locales])
    intervals = mm.build_intervals(D0, D0 + dt.timedelta(days=7 * (n_cols - 1)), 7)
    starts = [iv.start.isoformat() for iv in intervals]
    scored = ScoreMatrix("cl_std_5", grid, tuple(locales), intervals, {"w": 2})
    values = np.where(np.isfinite(grid), np.abs(grid), 0.0)
    matrix = mm.ModificationMatrix(
        ChangeType.ADDRESS, tuple(locales), intervals, values, counts, counts + 1
    )
    with tempfile.TemporaryDirectory() as tmp:
        plots.render_heatmap(grid, locales, starts, f"{tmp}/new.svg", title, highlight)
        oracles.row_render_heatmap(grid, locales, starts, f"{tmp}/old.svg", title, highlight)
        assert _read(f"{tmp}/new.svg") == _read(f"{tmp}/old.svg")

        order = det.rank_entries(grid, values)
        det.ranked_to_csv(scored, order, f"{tmp}/new_ranked.csv")
        oracles.row_ranked_to_csv(scored, order, f"{tmp}/old_ranked.csv")
        assert _read(f"{tmp}/new_ranked.csv") == _read(f"{tmp}/old_ranked.csv")

        det.scores_to_csv(scored, f"{tmp}/new_scores.csv")
        mm.matrix_to_csv(matrix, f"{tmp}/new_matrix.csv")
        with open(f"{tmp}/old_scores.csv", "w", newline="", encoding="utf-8") as fh:
            oracles.row_write_grid(
                fh, "cl_std_5", intervals, locales, [[[repr(float(v)) for v in row] for row in grid]]
            )
        with open(f"{tmp}/old_matrix.csv", "w", newline="", encoding="utf-8") as fh:
            oracles.row_write_grid(fh, "address", intervals, locales, [
                [[mm.FLOAT_FORMAT % v for v in row] for row in values],
                [[str(int(v)) for v in row] for row in counts],
                [[str(int(v)) for v in row] for row in counts + 1],
            ])
        # the score file's first line is its JSON params line
        assert _read(f"{tmp}/new_scores.csv").split(b"\n", 1)[1] == _read(f"{tmp}/old_scores.csv")
        assert _read(f"{tmp}/new_matrix.csv") == _read(f"{tmp}/old_matrix.csv")


def test_render_heatmap_peak_memory_per_cell(tmp_path):
    """The heatmap is coloured a row at a time, so above its input it holds
    the finite cells it takes the scale from and one row's arrays and text:
    9 bytes a cell at 500 x 520, where a whole-grid colouring held 57."""
    grid = np.random.default_rng(3).random((500, 520))
    grid[7, 8] = np.inf
    locales = [f"L{i:03d}" for i in range(500)]
    starts = [f"c{j}" for j in range(520)]
    tracemalloc.start()
    try:
        plots.render_heatmap(grid, locales, starts, str(tmp_path / "h.svg"), "t", {(1, 2)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * grid.size


# Any text XML 1.0 can carry: no control characters but tab, newline and
# carriage return, no surrogates or noncharacters.
XML_TEXT = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Cn"), include_characters="\t\n\r&<>\"'"),
    max_size=8,
)


def _texts(path):
    """The character data of each <text> element, in document order."""
    doc = minidom.parse(path)
    return [
        "".join(node.data for node in element.childNodes)
        for element in doc.getElementsByTagName("text")
    ]


@given(N_ROWS.flatmap(lambda n: st.lists(XML_TEXT, min_size=n, max_size=n)), XML_TEXT)
@example(["Polk & <IA>"], "Polk & <IA>")
def test_heatmap_parses_and_gives_labels_back(locales, title):
    n_rows = len(locales)
    drawn = [label for i, label in enumerate(locales) if n_rows <= 40 or i % (n_rows // 20) == 0]
    with tempfile.TemporaryDirectory() as tmp:
        plots.render_heatmap(np.ones((n_rows, 2)), locales, ["c0", "c1"], f"{tmp}/h.svg", title)
        texts = _texts(f"{tmp}/h.svg")
    assert texts[0] == title
    assert texts[1:-1] == drawn


def test_heatmap_replaces_characters_xml_cannot_hold(tmp_path):
    path = str(tmp_path / "h.svg")
    plots.render_heatmap(np.ones((1, 1)), ["a\x01b\uffff"], ["c0"], path, "t\x1f\t")
    assert _texts(path)[:2] == ["t\ufffd\t", "a\ufffdb\ufffd"]


def test_sweep_svg_escapes_title_and_method_names(tmp_path):
    result = SimpleNamespace(
        method="a<b & c>", gamma_grid=[0.0, 1.0], precision_at_k=[0.5, 1.0], auc=0.75
    )
    path = str(tmp_path / "sweep.svg")
    plots.render_sweep_svg([result], path, title="Polk & <IA>\r")
    texts = _texts(path)
    assert texts[0] == "Polk & <IA>\r"
    assert texts[-1] == "a<b & c> (auc=0.750)"
