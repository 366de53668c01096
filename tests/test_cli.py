import csv
import enum
import hashlib
import io
import itertools
import json
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rrqc import __version__, cli, protocols, qswitch
from rrqc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_complex,
    resolve_messages,
)


def run_json(tmp_path, args, name="report.json"):
    path = tmp_path / name
    code = main(args + ["--format", "json", "--output", str(path)])
    return code, json.loads(path.read_text())


def table_rows(table):
    """The records of a column table as dicts, arrays' rows as lists."""
    columns = {
        key: column.tolist() if isinstance(column, np.ndarray) else list(column)
        for key, column in table.items()
    }
    count = len(next(iter(columns.values()), []))
    return [{key: column[index] for key, column in columns.items()} for index in range(count)]


def report_document(report):
    """What the JSON text of ``report`` must be ``json.dumps`` of."""
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "version": __version__,
        "config": report.config,
        "records": table_rows(report.records),
        "summary": report.summary,
    }


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# the row-at-a-time CSV and text renderers that reports had before their
# records became column tables: the reference the table renderers must match


def rows_csv(rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(cli.CSV_COLUMNS)
    for record in rows:
        row = []
        for column in cli.CSV_COLUMNS:
            value = record.get(column, "")
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            elif value is None:
                value = ""
            row.append(value)
        writer.writerow(row)
    return buffer.getvalue()


def rows_text(config, rows, summary):
    lines = [f"command: {config['command']}"]
    for key, value in config.items():
        if key != "command" and value is not None:
            lines.append(f"  {key}: {value}")
    lines.append(f"records: {len(rows)}")
    for record in rows[: cli.MAX_TEXT_RECORDS]:
        body = ", ".join(
            f"{k}={json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v}"
            for k, v in record.items()
            if k not in ("command", "transcript") and v is not None
        )
        lines.append(f"  - {body}")
    if len(rows) > cli.MAX_TEXT_RECORDS:
        lines.append(f"  ... ({len(rows) - cli.MAX_TEXT_RECORDS} more)")
    lines.append("summary:")
    for key, value in summary.items():
        lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n"


def assert_renders_as_rows(report):
    rows = table_rows(report.records)
    assert report.to_json() == dumps(report_document(report))
    assert report.to_csv() == rows_csv(rows)
    assert report.to_text() == rows_text(report.config, rows, report.summary)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def test_parse_complex_literals():
    assert parse_complex("0.6") == 0.6
    assert parse_complex("0.8i") == 0.8j
    assert parse_complex("-0.3+0.2i") == -0.3 + 0.2j
    with pytest.raises(cli.UsageError):
        parse_complex("nope")


def test_resolve_messages_literal_and_haar():
    (msg,) = resolve_messages("0.6,0.8i", seed=0)
    assert msg.alpha == 0.6 and msg.beta == 0.8j
    drawn = resolve_messages("HAAR(5)", seed=7)
    assert len(drawn) == 5
    assert drawn == resolve_messages("HAAR(5)", seed=7)
    with pytest.raises(cli.UsageError):
        resolve_messages("1,2,3", seed=0)
    with pytest.raises(cli.UsageError):
        resolve_messages("0,0", seed=0)


def test_resolve_messages_normalizes_with_warning(capsys):
    (msg,) = resolve_messages("3,4", seed=0)
    assert abs(abs(msg.alpha) ** 2 + abs(msg.beta) ** 2 - 1.0) < 1e-12
    assert "normalizing" in capsys.readouterr().err


@pytest.mark.parametrize("message, norm", [("0,0", "0"), ("1e-7,0", "1e-14")])
def test_message_below_the_norm_floor_is_a_usage_error(message, norm, capsys):
    args = ["protocol", "--variant", "switch", "--n", "2", "--x", "1", "--message", message]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"message squared norm {norm} is below the floor 1e-12" in err


def test_small_message_above_the_norm_floor_is_normalized(tmp_path, capsys):
    args = ["protocol", "--variant", "switch", "--n", "2", "--x", "1", "--message", "1e-5,0"]
    code, report = run_json(tmp_path, args)
    assert code == EXIT_OK
    assert "warning: normalizing message with squared norm 1e-10" in capsys.readouterr().err
    assert {(tuple(r["alpha"]), tuple(r["beta"])) for r in report["records"]} == {
        ((1.0, 0.0), (0.0, 0.0))
    }


@pytest.mark.parametrize(
    "message", ["0.6,0.8i", "1+i,0", "3,4", "-0.3+0.2i,0.5", "3e153,4e153i", "5e153+6e153i,1"]
)
def test_literal_messages_normalize_as_the_plain_formula_does(message):
    # up to |z| ~ 1.3e154 the squares fit a float; a literal past 2**500 is
    # scaled by a power of two first, which must change no bit
    alpha, beta = (parse_complex(p) for p in message.split(","))
    scale = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    (msg,) = resolve_messages(message, seed=0)
    assert repr((msg.alpha, msg.beta)) == repr((alpha / scale, beta / scale))


@pytest.mark.parametrize(
    "message, alpha, beta",
    [
        ("1e200,1e200", [2**-0.5, 0.0], [2**-0.5, 0.0]),
        ("1e308+1e308i,0", [2**-0.5, 2**-0.5], [0.0, 0.0]),
        ("1e154,1e154", [2**-0.5, 0.0], [2**-0.5, 0.0]),
    ],
)
def test_message_too_large_to_square_is_normalized(tmp_path, capsys, message, alpha, beta):
    # squaring these raised OverflowError or overflowed the norm to inf
    args = ["protocol", "--variant", "switch", "--n", "2", "--x", "1", "--message", message]
    code, report = run_json(tmp_path, args)
    assert code == EXIT_OK
    assert "warning: normalizing message with squared norm" in capsys.readouterr().err
    for record in report["records"]:
        assert record["alpha"] == pytest.approx(alpha, abs=1e-15)
        assert record["beta"] == pytest.approx(beta, abs=1e-15)
        assert record["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_empty_message_is_a_usage_error(capsys):
    # '' ran a seeded Haar draw while the config echo said ""
    args = ["protocol", "--variant", "switch", "--n", "2", "--x", "1", "--message", ""]
    assert main(args + ["--format", "json"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "rrqc: error: message must be 'alpha,beta' or 'HAAR(count)', got ''\n"


def test_protocol_without_a_message_draws_one_haar_message():
    bare = cli.RunConfig(command="protocol", variant="switch", n=2, x=1)
    haar = cli.RunConfig(command="protocol", variant="switch", n=2, x=1, message="HAAR(1)")
    assert cli.cmd_protocol(bare).records == cli.cmd_protocol(haar).records


def test_usage_errors_exit_one(capsys):
    assert main(["protocol", "--variant", "bogus", "--n", "2"]) == EXIT_USAGE
    assert main(["nope"]) == EXIT_USAGE
    assert main(["protocol", "--variant", "switch", "--n", "9"]) == EXIT_USAGE
    assert main(["eb-check", "--weights", "1,1,1,1"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("x", ["ALL", "all", "0", "4"])
def test_baseline_sweep_takes_one_target(x, capsys):
    # --x ALL ran x = 1 while the config echo said "ALL"
    args = ["baseline-sweep", "--n", "3", "--x", x, "--count", "10", "--format", "json"]
    assert main(args) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "rrqc: error: --x must be in 1..3\n"


def test_nan_weights_are_a_usage_error(capsys):
    assert main(["eb-check", "--weights", "nan,0,0,1"]) == EXIT_USAGE
    assert "weights must be non-negative and sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["protocol", "--variant", "switch", "--n", "2", "--message", "HAAR(2)"],
        ["baseline-sweep", "--n", "2", "--count", "5"],
        ["validate-switch", "--n", "1", "--trials", "2"],
        ["nogo-scan", "--n", "3"],
        ["eb-check", "--weights", "0,0.5,0.5,0"],
    ],
)
def test_negative_seed_is_a_usage_error(args, capsys):
    assert main(args + ["--seed", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: rrqc ")
    assert "--seed: seed must be non-negative, got -1" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
@pytest.mark.parametrize(
    "args",
    [
        ["protocol", "--variant", "switch", "--n", "2", "--x", "1", "--message", "0.6,0.8i",
         "--tolerance"],
        ["baseline-sweep", "--n", "2", "--count", "5", "--mean-tolerance"],
    ],
    ids=["tolerance", "mean-tolerance"],
)
def test_tolerance_must_be_finite_and_non_negative(args, value, capsys):
    # nan and a negative bound failed every summary, inf passed every check
    assert main(args[:-1] + [f"{args[-1]}={value}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: rrqc ")
    assert f"tolerance must be finite and non-negative, got '{value}'" in err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing" / "x.json"):
        args = ["eb-check", "--weights", "0,0.5,0.5,0", "--output", str(path)]
        assert main(args) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"rrqc: error: cannot write report to {path}: " in err


def test_cached_parser_keeps_successive_calls_independent(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    code, first = run_json(tmp_path, ["nogo-scan", "--n", "3", "--seed", "4"], "a.json")
    assert code == EXIT_OK
    assert main(["nogo-scan"]) == EXIT_USAGE  # --n missing
    assert "required: --n" in capsys.readouterr().err
    code, other = run_json(tmp_path, ["eb-check", "--weights", "0,0.5,0.5,0"], "b.json")
    assert code == EXIT_OK
    assert other["config"]["command"] == "eb-check"
    assert other["config"]["n"] is None and other["config"]["seed"] == 0
    code, again = run_json(tmp_path, ["nogo-scan", "--n", "3", "--seed", "4"], "c.json")
    assert code == EXIT_OK
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()


# ---------------------------------------------------------------------------
# protocol command
# ---------------------------------------------------------------------------


def test_protocol_switch_all_targets(tmp_path):
    code, report = run_json(
        tmp_path,
        ["protocol", "--variant", "switch", "--n", "3", "--x", "ALL", "--message", "0.6,0.8i"],
    )
    assert code == EXIT_OK
    assert report["schema_version"] == 1
    assert report["summary"]["passed"] is True
    assert report["summary"]["min_fidelity"] >= 1 - 1e-9
    assert report["summary"]["cases"] == 3
    xs = {rec["x"] for rec in report["records"]}
    assert xs == {1, 2, 3}
    assert report["records"][0]["alpha"] == [0.6, 0.0]
    assert report["records"][0]["beta"] == [0.0, 0.8]


def test_protocol_enumerates_every_branch_above_four_receivers(tmp_path):
    code, report = run_json(
        tmp_path,
        ["protocol", "--variant", "switch", "--n", "5", "--x", "ALL",
         "--message", "HAAR(3)", "--seed", "2"],
    )
    assert code == EXIT_OK
    summary = report["summary"]
    assert summary["cases"] == 15
    assert summary["branches"] == 15 * 2**5
    assert summary["min_fidelity"] >= 1 - summary["tolerance"]
    assert summary["passed"] is True


def test_protocol_noiseless_trivial(tmp_path):
    code, report = run_json(
        tmp_path,
        ["protocol", "--variant", "noiseless", "--n", "2", "--x", "1", "--message", "1,0"],
    )
    assert code == EXIT_OK
    assert all(rec["fidelity"] >= 1 - 1e-9 for rec in report["records"])


def test_protocol_baseline_haar_mean(tmp_path):
    code, report = run_json(
        tmp_path,
        [
            "protocol",
            "--variant",
            "baseline",
            "--n",
            "2",
            "--x",
            "1",
            "--message",
            "HAAR(400)",
            "--seed",
            "7",
        ],
    )
    assert code == EXIT_OK  # informational: baseline has no pass criterion
    assert report["summary"]["passed"] is None
    assert abs(report["summary"]["mean_fidelity"] - 2 / 3) < 0.05


def test_protocol_transcript_events(tmp_path):
    code, report = run_json(
        tmp_path,
        [
            "protocol",
            "--variant",
            "controlled-ops",
            "--n",
            "3",
            "--x",
            "1",
            "--message",
            "1,0",
            "--transcript",
        ],
    )
    assert code == EXIT_OK
    flagged = [
        e
        for e in report["records"][0]["transcript"]
        if e["type"] == "nonlocal-operation"
    ]
    assert len(flagged) == 2
    assert all(e["flagged"] for e in flagged)


# ---------------------------------------------------------------------------
# validator / scans / eb-check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 7])
def test_validate_switch_rejects_receiver_counts_outside_the_cap(n, capsys):
    assert main(["validate-switch", "--n", str(n), "--trials", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "rrqc: error: --n must be in 1..6\n"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_validate_switch_checks_every_n_up_to_the_cap(tmp_path, n):
    code, report = run_json(tmp_path, ["validate-switch", "--n", str(n), "--trials", "3"])
    assert code == EXIT_OK and report["summary"]["passed"] is True
    kinds = [(r["kind"], r["n"]) for r in report["records"]]
    assert kinds == [("identity", n), ("nxy-choi", n)] + [("nxy-input", n)] * 3


def test_validate_switch_command(tmp_path):
    code, report = run_json(
        tmp_path, ["validate-switch", "--n", "2", "--trials", "25", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert report["summary"]["passed"] is True
    assert report["summary"]["max_deviation"] < 1e-9
    assert len([r for r in report["records"] if r["kind"] == "two-party"]) == 25


def test_nogo_scan_exit_codes(tmp_path):
    code_odd, report_odd = run_json(tmp_path, ["nogo-scan", "--n", "3"], "odd.json")
    assert code_odd == EXIT_OK
    assert report_odd["summary"]["counterexamples"] == 0
    code_even, report_even = run_json(tmp_path, ["nogo-scan", "--n", "2"], "even.json")
    assert code_even == EXIT_OK  # even n is expected to produce counterexamples
    assert report_even["summary"]["counterexamples"] >= 1


def test_nogo_scan_records_are_the_brute_force_counterexamples(tmp_path):
    n = 4
    expected = [
        {"command": "nogo-scan", "n": n, "tau": list(tau), "bits": list(bits), "fixed_index": None}
        for tau in itertools.permutations(range(1, n + 1))
        for bits in itertools.product((0, 1), repeat=n)
        if all(bits[j] != bits[tau[j] - 1] for j in range(n))
    ]
    code, report = run_json(tmp_path, ["nogo-scan", "--n", str(n)])
    assert code == EXIT_OK
    assert report["records"] == expected
    assert report["summary"]["counterexamples"] == len(expected) == 24
    path = tmp_path / "report.csv"
    assert main(["nogo-scan", "--n", str(n), "--format", "csv", "--output", str(path)]) == EXIT_OK
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [(json.loads(r["tau"]), json.loads(r["bits"])) for r in rows] == [
        (r["tau"], r["bits"]) for r in expected
    ]
    assert all(r["fixed_index"] == "" for r in rows)


def test_eb_check_verdicts(tmp_path):
    code, report = run_json(tmp_path, ["eb-check", "--weights", "0,0.5,0.5,0"])
    assert code == EXIT_OK
    assert report["summary"]["entanglement_breaking"] is True
    code, report = run_json(tmp_path, ["eb-check", "--weights", "1,0,0,0"], "id.json")
    assert report["summary"]["entanglement_breaking"] is False
    assert abs(report["summary"]["witness"] + 0.5) < 1e-9


def test_eb_check_expectation_failure_exits_two(tmp_path):
    path = tmp_path / "fail.json"
    code = main(
        [
            "eb-check",
            "--weights",
            "1,0,0,0",
            "--expect",
            "eb",
            "--format",
            "json",
            "--output",
            str(path),
        ]
    )
    assert code == EXIT_CHECK_FAILED


def test_validity_violations_exit_three(monkeypatch, capsys):
    def boom(cfg):
        raise cli.ValidityError("synthetic violation")

    monkeypatch.setitem(cli.COMMANDS, "nogo-scan", boom)
    assert main(["nogo-scan", "--n", "3"]) == cli.EXIT_VALIDITY
    assert "numerical validity violation" in capsys.readouterr().err


def test_baseline_sweep_command(tmp_path):
    code, report = run_json(
        tmp_path,
        ["baseline-sweep", "--n", "2", "--count", "400", "--seed", "3"],
    )
    assert code == EXIT_OK
    assert report["summary"]["passed"] is True
    assert abs(report["summary"]["plus_fidelity"] - 0.5) < 1e-9


# ---------------------------------------------------------------------------
# report formats and determinism
# ---------------------------------------------------------------------------


def test_json_reports_are_byte_identical_for_same_config(tmp_path):
    args = [
        "protocol",
        "--variant",
        "switch",
        "--n",
        "2",
        "--x",
        "ALL",
        "--message",
        "HAAR(3)",
        "--seed",
        "5",
        "--format",
        "json",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--output", str(first)]) == EXIT_OK
    assert main(args + ["--output", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_validate_switch_reports_are_byte_identical_in_one_process(tmp_path, monkeypatch):
    # the first call builds the per-n fixtures, the second reuses them
    monkeypatch.setattr(qswitch, "_FIXTURES", {})
    args = ["validate-switch", "--trials", "20", "--seed", "3", "--format", "json"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(first)]) == EXIT_OK
    built = dict(qswitch._FIXTURES)
    assert sorted(built) == [1, 2, 3]
    assert main(args + ["--output", str(second)]) == EXIT_OK
    assert all(qswitch._FIXTURES[n] is fixture for n, fixture in built.items())
    assert first.read_bytes() == second.read_bytes()


class _Float(float):
    def __repr__(self):
        return "not json"


class _Int(int):
    def __repr__(self):
        return "not json"


_ESCAPES = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600a'))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(_Int),
    st.floats(),
    st.floats().map(_Float),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(),
    _ESCAPES,
)
_KEYS = st.one_of(st.text(max_size=6), _ESCAPES)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=30,
)


class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


# keys that break a %-format row template unless every % is escaped
_RECORD_KEYS = st.one_of(
    _KEYS,
    st.sampled_from(["%", "%s", "%%", "%(k)s", "a%d", "\u00e9%s", '"%s"', "\\%"]),
    st.text(st.sampled_from('%s\\"\n\u00e9\U0001f600'), max_size=4),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(_Int),
    st.sampled_from(list(_Level)),
    st.floats(),
    st.floats().map(_Float),
    _ESCAPES,
)
# what one column of like records holds: mostly one type, as in real
# reports, or a mix that must not be rendered as one type
_COLUMN_CELLS = st.sampled_from(
    [
        st.integers(),
        st.booleans(),
        st.floats(),
        _ESCAPES,
        st.none(),
        st.one_of(st.integers(), st.booleans()),
        st.one_of(st.integers(0, 1), st.sampled_from(list(_Level))),
        st.one_of(st.integers(), st.integers().map(_Int)),
        st.one_of(st.floats(), st.floats().map(_Float)),
        st.lists(st.integers(), max_size=3),
        st.lists(st.booleans(), max_size=3).map(tuple),
        st.lists(st.floats(), max_size=3),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=3),
        st.lists(st.lists(st.integers(), max_size=2), max_size=2),
        _LEAVES,
        st.lists(_LEAVES, max_size=3),
    ]
)


@st.composite
def like_records(draw):
    """Dicts sharing one key set, each column drawn from one cell strategy."""
    keys = draw(st.lists(_RECORD_KEYS, unique=True, max_size=5))
    count = draw(st.integers(1, 6))
    columns = [
        draw(st.lists(draw(_COLUMN_CELLS), min_size=count, max_size=count)) for _ in keys
    ]
    return [dict(zip(keys, row)) for row in zip(*columns)] if keys else [{}] * count


@st.composite
def record_lists(draw):
    """One to three groups of like records, interleaved in a drawn order."""
    groups = draw(st.lists(like_records(), min_size=1, max_size=3))
    return draw(st.permutations([row for group in groups for row in group]))


def _int_matrices(count):
    """(count, width) integer arrays: the shape of the scan's columns."""
    dtypes = st.sampled_from([np.int8, np.int64, np.uint16])
    return hnp.arrays(dtypes, st.tuples(st.just(count), st.integers(0, 4)))


@st.composite
def column_tables(draw):
    """Column tables of zero to six records: each column drawn from one cell
    strategy, or an integer matrix. Keys include CSV columns and the keys a
    text report skips."""
    count = draw(st.integers(0, 6))
    keys = draw(
        st.lists(
            st.one_of(_RECORD_KEYS, st.sampled_from(cli.CSV_COLUMNS + ("transcript",))),
            unique=True,
            max_size=5,
        )
    )
    cells = st.one_of(
        _COLUMN_CELLS.map(lambda cell: st.lists(cell, min_size=count, max_size=count)),
        st.just(_int_matrices(count)),
    )
    return {key: draw(draw(cells)) for key in keys}


@settings(max_examples=300, deadline=None)
@given(_VALUES, st.dictionaries(_KEYS, _VALUES, max_size=3))
def test_report_json_matches_json_dumps(value, summary):
    records = {"value": [value, {"v": value}]}
    report = cli.Report({"command": "x", "value": value}, records, summary)
    assert report.to_json() == dumps(report_document(report))


@settings(max_examples=300, deadline=None)
@given(column_tables(), record_lists(), like_records())
def test_report_json_matches_json_dumps_on_like_records(table, records, rows):
    # like records as a report's records, nested in its config, and as the
    # rows of a column of lists; kept apart from the test above so that a
    # failure shrinks quickly
    report = cli.Report({"command": "x", "rows": rows}, table, {"nested": [rows, records]})
    assert report.to_json() == dumps(report_document(report))


@settings(max_examples=300, deadline=None)
@given(column_tables())
def test_column_tables_render_as_their_rows(table):
    # every format of a table against json.dumps and the row-at-a-time
    # renderers, on the rows the table stands for
    assert_renders_as_rows(cli.Report({"command": "x", "seed": 0}, table, {"passed": None}))


class _Text(str):
    pass


def test_report_json_hands_other_values_to_json_dumps():
    # values the renderer does not batch, at depth >= 2 so that json's text
    # is re-indented at a nonzero pad: dicts with non-str keys over several
    # lines, IntEnums and a str subclass holding a newline
    keyed = {2: [1, {"b": _Level.HIGH}], 1.5: {None: "x"}, True: [], -3: (0,)}
    odd = [_Level.LOW, _Text("line\nbreak"), _Int(3), _Float(0.5), {_Text("k\n"): 1}]
    records = {
        "a": [keyed, {"d": keyed}, [keyed, keyed]],
        "b": [[odd, {"c": keyed}], odd, {"e": [odd]}],
    }
    report = cli.Report(
        {"command": "x", "deep": {"keyed": keyed, "odd": odd}},
        records,
        {"nested": [[keyed]], "odd": {"list": odd}, "level": _Level.HIGH},
    )
    assert report.to_json() == dumps(report_document(report))


@pytest.mark.parametrize(
    "value",
    [{1: "a", 0: "b"}, {2.5: 0, -1.0: 1}, {True: 0}, {None: [1]}, {False: {}}],
    ids=["int", "float", "true", "null", "false"],
)
def test_report_json_converts_keys_as_json_does(value):
    assert cli._json_value(value, "") + "\n" == dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        object(),
        {1, 2},
        [b"bytes"],
        {(1, 2): 0},
        # like records: json meets the object first, a pass over column "a"
        # would meet the set first
        [{"a": 1, "b": object()}, {"a": {1}, "b": 2}],
        [[{"a": [1], "b": [object()]}], [{"a": [{1}], "b": []}]],
    ],
)
def test_report_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as raised:
        cli._json_value(value, "")
    assert str(raised.value) == str(expected.value)


def per_cell_csv(values):
    """The CSV cells of a column as the row-at-a-time renderer made them:
    one ``json.dumps`` per dict or list."""
    return [json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v for v in values]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(_VALUES, _LEAVES), max_size=6),
        record_lists(),
        st.lists(st.lists(_LEAVES, max_size=3), max_size=6),
        st.lists(st.one_of(st.lists(st.floats(), min_size=2, max_size=2), st.none()), max_size=6),
    )
)
def test_csv_cells_match_per_cell_json_dumps(values):
    # a column's dicts and lists rendered in one pass, made compact and put
    # back among its other values, against json.dumps on each cell
    assert cli._csv_cells(values) == per_cell_csv(values)


@pytest.mark.parametrize(
    "values",
    [
        [[1], [{1, 2}], {"a": object()}],
        [{"a": 1, "b": object()}, {"a": {1}, "b": 2}],
        [None, [b"bytes"]],
    ],
)
def test_csv_cells_reject_what_json_rejects(values):
    with pytest.raises(TypeError) as expected:
        per_cell_csv(values)
    with pytest.raises(TypeError) as raised:
        cli._csv_cells(values)
    assert str(raised.value) == str(expected.value)


def test_real_reports_render_as_json_dumps():
    # reports as the commands build them: an empty record table (odd scan),
    # integer-matrix columns (even scan), None config values, float and bool
    # columns and the four transcript event shapes; the CSV and text of each
    # are what the row-at-a-time renderers make of its rows
    parser = cli.build_parser()
    for argv in [
        ["nogo-scan", "--n", "6"],
        ["nogo-scan", "--n", "7"],
        ["validate-switch", "--n", "2", "--trials", "3"],
        ["eb-check", "--weights", "0,0.5,0.5,0"],
        ["protocol", "--variant", "controlled-ops", "--n", "3", "--x", "ALL", "--transcript"],
        ["baseline-sweep", "--count", "50"],
    ]:
        cfg = cli._config_from_args(parser.parse_args(argv))
        assert_renders_as_rows(cli.COMMANDS[cfg.command](cfg))


#: sha256 of ``nogo-scan --n N`` in each format. The scan reports hold no
#: floats, so their bytes do not depend on the platform or its BLAS.
NOGO_DIGESTS = {
    (2, "json"): "aca006e263eaaeb8e927c0daaf69d6ce26718700281005e8b93410068f7f2545",
    (2, "csv"): "6842f6d5a8d6c3bc37350fff87582950ccbacbf8c30d3b22f5108f0d881c8761",
    (2, "text"): "06d6447abc8a14fc28854b3a7151223542bef1f08c47e8f9e21ffb328e9702e6",
    (3, "json"): "6b1dbb46c1935414c7e15517316fab823b0c3564f8783efc6bdb882ca4445389",
    (3, "csv"): "0708c7966da1b78e18976721c826ca3b75cc4e5e36e13573b47f9e28400070d4",
    (3, "text"): "e9e1f999cb87b82839cf9770a604723640d48f50d95bb92e26e38c7b91384d2f",
    (4, "json"): "e375e299f45fc97641607acd59b05e4d2f7e453ab1e14eef759747c976c392cc",
    (4, "csv"): "c90db67c382e797c55a39b841cb8e000b812920137611e74c5cc56d9a99f9d61",
    (4, "text"): "0b01047d1ec44ee2263a7e138fa538d1c75daf11b4191211865ad151214fb3c0",
    (5, "json"): "465400d92c3cc38f672803a3e586ea3cb7d92af2a439ca86606ac3084f4b541c",
    (5, "csv"): "0708c7966da1b78e18976721c826ca3b75cc4e5e36e13573b47f9e28400070d4",
    (5, "text"): "5beb387d521585d582736a984a35818421a887ab93dee5e9abca5bac2919a4a6",
    (6, "json"): "85c4a2893508ae1c9d6910b02639acaa999dc7bb0b08c1ba58a77f3e681ba135",
    (6, "csv"): "e0e3842f3e1fdf3d6eda700ca3113846dcf83db867b4443a2eaf695d4d651f26",
    (6, "text"): "1b336ac047caa3ce694484c931c5dcdd71b461bf4f1f09de802b1b0a8b85b139",
    (7, "json"): "da1a56cb2fe4963a740c07afe646c697d91f40fd7b2bc43a09b47e34117836d7",
    (7, "csv"): "0708c7966da1b78e18976721c826ca3b75cc4e5e36e13573b47f9e28400070d4",
    (7, "text"): "c973fcb3ae96638af2d1d79a61f1b696beade5cb0fcab9ff7c27db3465e7dfcb",
}


@pytest.mark.parametrize("n, fmt", sorted(NOGO_DIGESTS))
def test_scan_reports_keep_their_bytes(tmp_path, n, fmt):
    path = tmp_path / "report"
    args = ["nogo-scan", "--n", str(n), "--format", fmt, "--output", str(path)]
    assert main(args) == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == NOGO_DIGESTS[n, fmt]


def test_report_embeds_seed_and_tolerance(tmp_path):
    _, report = run_json(
        tmp_path, ["validate-switch", "--n", "1", "--trials", "1", "--seed", "9"]
    )
    assert report["config"]["seed"] == 9
    assert report["config"]["tolerance"] == 1e-9
    assert report["summary"]["tolerance"] == 1e-9


def test_csv_report_has_fixed_header(tmp_path):
    path = tmp_path / "report.csv"
    code = main(
        [
            "protocol",
            "--variant",
            "noiseless",
            "--n",
            "2",
            "--x",
            "1",
            "--message",
            "1,0",
            "--format",
            "csv",
            "--output",
            str(path),
        ]
    )
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 3  # header + one row per branch


SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_claims.py"


def test_sweeps_build_no_branch_records(tmp_path, built_records, monkeypatch, capsys):
    # protocol (JSON, CSV and with transcripts), baseline-sweep and the
    # claims script read the evaluations' columns: none builds a record
    haar = ["protocol", "--variant", "baseline", "--n", "2", "--x", "1", "--message", "HAAR(50)"]
    for args in [
        haar + ["--format", "json"],
        haar + ["--format", "csv"],
        ["protocol", "--variant", "switch", "--n", "3", "--message", "0.6,0.8i", "--transcript"],
        ["protocol", "--variant", "controlled-ops", "--n", "2", "--transcript", "--format", "json"],
        ["baseline-sweep", "--count", "50", "--mean-tolerance", "1", "--format", "json"],
        ["baseline-sweep", "--count", "50", "--mean-tolerance", "1", "--format", "csv"],
    ]:
        assert main(args + ["--output", str(tmp_path / "report")]) == EXIT_OK
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--trials", "2", "--haar-samples", "50"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert "baseline Haar-mean fidelity" in capsys.readouterr().out
    assert built_records == []
    # the count sees the records a caller does read
    result = protocols.run_switch_protocol(protocols.MessageState.plus(), 3, 1)
    assert built_records == []
    assert len(result.branches) == len(built_records) == 8


def test_text_report_prints_summary(capsys):
    code = main(
        ["protocol", "--variant", "noiseless", "--n", "2", "--x", "1", "--message", "1,0"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "summary:" in out
    assert "min_fidelity" in out


# ---------------------------------------------------------------------------
# report bytes and the interpreter's float sum
# ---------------------------------------------------------------------------


def ci_json_runs():
    """The (name, argv) of every JSON report the CI workflow byte-compares."""
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith("<<'RUNS'"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "RUNS")
    runs = [line.split() for line in lines[start + 1 : end]]
    return [(name, argv) for name, *argv in runs if name.endswith(".json")]


def test_json_runs_do_not_depend_on_the_interpreter_sum(tmp_path, compensated_sum):
    # Python 3.12 compensates the builtin float sum; every float total that
    # reaches a report is added left to right (qcore.left_sum) instead, so
    # the bytes are those of Python 3.11 and no float goes through sum
    runs = ci_json_runs()
    assert len(runs) >= 17
    recorder = compensated_sum()
    for name, argv in runs:
        plain, patched = tmp_path / f"plain-{name}", tmp_path / f"patched-{name}"
        assert main(argv + ["--output", str(plain)]) == EXIT_OK
        with recorder.patch():
            assert main(argv + ["--output", str(patched)]) == EXIT_OK
        assert plain.read_bytes() == patched.read_bytes(), name
    assert recorder.floats == []
