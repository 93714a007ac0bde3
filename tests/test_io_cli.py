"""Tests for the I/O layer and the command-line interface."""

import csv

import pytest

from repro.core import ConstraintSyntaxError, DatasetError, values_equal
from repro.cli import main
from repro.io import (
    dump_constraints,
    load_constraint_file,
    parse_cell,
    parse_constraint_text,
    read_entity_rows,
    write_resolved_tuples,
)

from tests.conftest import EDITH_ROWS, EDITH_TRUTH, GEORGE_ROWS

CONSTRAINT_TEXT = """
# the Fig. 3 constraints
currency: t1.status = 'working' & t2.status = 'retired' -> t1 < t2 on status
currency: t1.status = 'retired' & t2.status = 'deceased' -> t1 < t2 on status
currency: t1.job = 'sailor' & t2.job = 'veteran' -> t1 < t2 on job
currency: t1.kids < t2.kids -> t1 < t2 on kids
currency: t1 < t2 on status -> t1 < t2 on job
currency: t1 < t2 on status -> t1 < t2 on AC
currency: t1 < t2 on status -> t1 < t2 on zip
currency: t1 < t2 on city & t1 < t2 on zip -> t1 < t2 on county

# The CSV reader parses numeric-looking cells as numbers, so the AC constants
# are written unquoted to match.
cfd: AC=213 -> city='LA'
cfd: AC=212 -> city='NY'
"""


@pytest.fixture
def people_csv(tmp_path):
    path = tmp_path / "people.csv"
    fieldnames = ["name", "status", "job", "kids", "city", "AC", "zip", "county"]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in EDITH_ROWS + GEORGE_ROWS:
            writer.writerow({key: "" if value is None else value for key, value in row.items()})
    return path


@pytest.fixture
def constraints_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text(CONSTRAINT_TEXT)
    return path


class TestParseCell:
    def test_empty_and_null_markers(self):
        assert parse_cell("") is None
        assert parse_cell("null") is None
        assert parse_cell("  NA ") is None

    def test_numbers(self):
        assert parse_cell("3") == 3
        assert parse_cell("2.5") == 2.5

    def test_strings_preserved(self):
        assert parse_cell("90058") == 90058
        assert parse_cell("n/a") == "n/a"


class TestConstraintText:
    def test_round_trip(self):
        sigma, gamma = parse_constraint_text(CONSTRAINT_TEXT)
        assert len(sigma) == 8 and len(gamma) == 2
        text = dump_constraints(sigma, gamma)
        sigma2, gamma2 = parse_constraint_text(text)
        assert len(sigma2) == 8 and len(gamma2) == 2
        assert {c.conclusion_attribute for c in sigma} == {c.conclusion_attribute for c in sigma2}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint_text("denial: whatever -> x")

    def test_missing_body_rejected(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint_text("currency:")

    def test_cfd_without_arrow_rejected(self):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint_text("cfd: AC='213', city='LA'")

    def test_load_constraint_file(self, constraints_file):
        sigma, gamma = load_constraint_file(constraints_file)
        assert len(sigma) == 8 and len(gamma) == 2


class TestCSVRoundTrip:
    def test_read_entity_rows_groups_by_key(self, people_csv):
        schema, instances = read_entity_rows(people_csv, "name")
        assert set(instances) == {"Edith Shain", "George Mendonca"}
        assert len(instances["Edith Shain"]) == 3
        assert len(schema) == 8

    def test_missing_key_column_rejected(self, people_csv):
        with pytest.raises(DatasetError):
            read_entity_rows(people_csv, "does_not_exist")

    def test_padded_headers_still_resolve_values(self, tmp_path):
        """DictReader keys rows by unstripped names; values must not go NULL."""
        from repro.io import read_csv_header, stream_csv_rows

        path = tmp_path / "padded.csv"
        path.write_text("name, status\nann,working\n")
        schema = read_csv_header(path)
        assert schema.attribute_names == ("name", "status")
        rows = list(stream_csv_rows(path, schema))
        assert rows == [{"name": "ann", "status": "working"}]
        _, instances = read_entity_rows(path, "name")
        assert instances["ann"].tuples[0]["status"] == "working"

    def test_write_resolved_tuples(self, tmp_path, people_csv):
        schema, instances = read_entity_rows(people_csv, "name")
        out = tmp_path / "resolved.csv"
        write_resolved_tuples(
            out,
            schema,
            {"Edith Shain": {"name": "Edith Shain", "status": "deceased"}},
            extra_columns={"__rounds__": {"Edith Shain": 0}},
        )
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["__entity__"] == "Edith Shain"
        assert rows[0]["status"] == "deceased"
        assert rows[0]["job"] == ""
        assert rows[0]["__rounds__"] == "0"


class TestCLI:
    def test_validate_command(self, people_csv, constraints_file, capsys):
        exit_code = main(
            ["validate", str(people_csv), "--entity-key", "name", "--constraints", str(constraints_file)]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2/2 specifications are valid" in output

    def test_resolve_command_writes_csv(self, people_csv, constraints_file, tmp_path, capsys):
        out = tmp_path / "resolved.csv"
        exit_code = main(
            [
                "resolve",
                str(people_csv),
                "--entity-key",
                "name",
                "--constraints",
                str(constraints_file),
                "-o",
                str(out),
                "--fallback",
                "pick",
            ]
        )
        assert exit_code == 0
        with out.open() as handle:
            rows = {row["__entity__"]: row for row in csv.DictReader(handle)}
        edith = rows["Edith Shain"]
        # kids was read as an integer, so compare through parse_cell.
        assert values_equal(parse_cell(edith["status"]), EDITH_TRUTH["status"])
        assert values_equal(parse_cell(edith["city"]), EDITH_TRUTH["city"])
        assert edith["__complete__"] == "True"

    def test_resolve_without_constraints(self, people_csv, capsys):
        exit_code = main(["resolve", str(people_csv), "--entity-key", "name"])
        assert exit_code == 0
        assert "true values deduced" in capsys.readouterr().out

    def test_pipeline_command_streams_jsonl(self, people_csv, constraints_file, tmp_path, capsys):
        import json

        out = tmp_path / "resolved.jsonl"
        exit_code = main(
            [
                "pipeline",
                str(people_csv),
                "--entity-key",
                "name",
                "--constraints",
                str(constraints_file),
                "--output",
                str(out),
            ]
        )
        assert exit_code == 0
        records = {json.loads(line)["entity"]: json.loads(line) for line in out.read_text().splitlines()}
        assert set(records) == {"Edith Shain", "George Mendonca"}
        edith = records["Edith Shain"]
        assert edith["complete"] is True
        assert values_equal(edith["resolved"]["status"], EDITH_TRUTH["status"])
        assert "resolved 2 entities" in capsys.readouterr().out

    def test_discover_command(self, people_csv, capsys):
        exit_code = main(
            ["discover", str(people_csv), "--entity-key", "name", "--min-support", "1", "--min-confidence", "0.9"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cfd:" in output

    def test_validate_flags_invalid_specifications(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("name,status\ne,a\ne,b\n")
        rules = tmp_path / "rules.txt"
        rules.write_text(
            "currency: t1.status = 'a' & t2.status = 'b' -> t1 < t2 on status\n"
            "currency: t1.status = 'b' & t2.status = 'a' -> t1 < t2 on status\n"
        )
        exit_code = main(
            ["validate", str(data), "--entity-key", "name", "--constraints", str(rules)]
        )
        assert exit_code == 1
        assert "INVALID" in capsys.readouterr().out
