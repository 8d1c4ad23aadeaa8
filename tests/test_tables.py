"""The CSV tables: training data, labels and MDD structure tables are read
by one reader, with one rule for index cells."""

import re

import pytest

from afdi import cli
from afdi.nbc import AttributeSchema, LabeledExample, TrainingError, read_training_csv
from afdi.simulator import AlignmentError, WindowLabel, read_labels
from afdi.states import index_cell

SCHEMA = AttributeSchema(attributes=(("x", 2),), classes=("a", "b"))

# each table: its header, a first row, a second row with the index cell
# {cell}, a short second row, its loader and the loader's error class
TABLES = {
    "training": ("x,label", "0,a", "{cell},b", "1", lambda p: read_training_csv(p, SCHEMA), TrainingError),
    "labels": ("window,host,vm,label", "0,h0,vm0,normal", "{cell},h0,vm0,cpu_hog", "1,h0,vm0",
               read_labels, AlignmentError),
    "mdd": ("vm.cpu,level", "0,0", "{cell},1", "1", cli._load_structure_table, cli.CliError),
}
BAD_CELLS = {"underscore": "1_0", "signed": " +1 ", "negative": "-1", "arabic-indic": "١"}


def _write(tmp_path, table, second_row):
    """The path of ``table``'s CSV with ``second_row`` on line 4, after a blank line."""
    header, first = TABLES[table][:2]
    path = tmp_path / f"{table}.csv"
    path.write_text(f"{header}\n{first}\n\n{second_row}\n", encoding="utf-8")
    return path


def _second_rows(table):
    row, short = TABLES[table][2:4]
    return {**{name: row.format(cell=cell) for name, cell in BAD_CELLS.items()}, "short-row": short}


def _message(table, case):
    """What a loader says about line 4 of ``case``."""
    if case == "short-row":
        width = TABLES[table][0].count(",") + 1
        return f"expected {width} columns, got {width - 1}"
    return f"invalid literal for int() with base 10: {BAD_CELLS[case]!r}"


CASES = [(table, case) for table in TABLES for case in _second_rows(table)]


@pytest.mark.parametrize("table, case", CASES, ids=[f"{t}-{c}" for t, c in CASES])
def test_every_table_names_the_path_and_line_of_a_bad_row(tmp_path, table, case):
    # before, 1_0 read as 10, " +1 " and ١ as 1 and -1 as -1 without a
    # message, or failed naming no line; a short labels row ended in a
    # bare IndexError
    load, error = TABLES[table][4:]
    path = _write(tmp_path, table, _second_rows(table)[case])
    with pytest.raises(error, match=f"^{re.escape(f'{path}: line 4: {_message(table, case)}')}$"):
        load(path)


COMMANDS = {
    "training": lambda path, tmp_path: ["train", "--data", str(path), "--schema", str(_schema(tmp_path)),
                                        "--out-model", str(tmp_path / "model.json")],
    "mdd": lambda path, tmp_path: ["mdd", "--table", str(path)],
}
CLI_CASES = [(table, case) for table in COMMANDS for case in _second_rows(table)]


def _schema(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('{"attributes": [["x", 2]], "classes": ["a", "b"]}')
    return path


@pytest.mark.parametrize("table, case", CLI_CASES, ids=[f"{t}-{c}" for t, c in CLI_CASES])
def test_afdi_reports_a_bad_row_as_one_error_line(tmp_path, capsys, table, case):
    path = _write(tmp_path, table, _second_rows(table)[case])
    assert cli.main(COMMANDS[table](path, tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {path}: line 4: {_message(table, case)}\n"


def test_every_table_reads_an_index_cell_of_ascii_digits(tmp_path):
    def load(table):
        return TABLES[table][4](_write(tmp_path, table, TABLES[table][2].format(cell="1")))

    assert load("training") == [LabeledExample((0,), 0), LabeledExample((1,), 1)]
    assert load("labels") == [WindowLabel(0, "h0", "vm0", "normal"), WindowLabel(1, "h0", "vm0", "cpu_hog")]
    assert load("mdd").arities == (2,)


@pytest.mark.parametrize("table", sorted(TABLES))
def test_every_table_needs_its_header(tmp_path, table):
    path = tmp_path / f"{table}.csv"
    path.write_text("")
    load, error = TABLES[table][4:]
    with pytest.raises(error, match=f"^{re.escape(str(path))}: line 1: "):
        load(path)


@pytest.mark.parametrize("table", sorted(TABLES))
def test_every_table_names_the_path_of_text_csv_cannot_read(tmp_path, table):
    # before, an overlong cell ended in a _csv.Error traceback, and bytes
    # that are not UTF-8 in an error naming no file
    header, first = TABLES[table][:2]
    load, error = TABLES[table][4:]
    path = tmp_path / f"{table}.csv"
    path.write_text(f"{header}\n{first}\n{'1' * 200_000}\n")
    with pytest.raises(error, match=f"^{re.escape(f'{path}: line 3: field larger than field limit')}"):
        load(path)
    path.write_bytes(f"{header}\n{first}\n".encode() + b"\xff\n")
    with pytest.raises(error, match=f"^{re.escape(f'{path}: ')}'utf-8' codec can't decode byte 0xff"):
        load(path)


@pytest.mark.parametrize("cell, value", [("0", 0), ("7", 7), ("010", 10), ("123456789", 123456789)])
def test_index_cell_reads_ascii_digits(cell, value):
    assert index_cell(cell) == value


@pytest.mark.parametrize("cell", ["", " 1", "1 ", "+1", "-1", "1_0", "1.0", "0x1", "١", "²", "１"])
def test_index_cell_rejects_anything_else(cell):
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid literal for int() with base 10: {cell!r}')}$"):
        index_cell(cell)
