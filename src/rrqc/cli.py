"""Command-line front end for protocols, validators, and scans.

Exit codes: 0 all checks pass, 1 usage error, 2 a check failed, 3 numerical
validity violation. Reports embed the seed and tolerance they ran with and
contain no wall-clock data, so JSON output is byte-identical for identical
(flags, seed) pairs; elapsed time goes to stderr.

Every command builds its records as a column table, key to column with one
entry per record: a list, or a 2-D integer array whose rows are the
records' lists (``nogo-scan`` passes the scan's arrays as they are). JSON
renders a table through one row template from its sorted keys, each column
through ``_json_column``, whose rule for an integer array formats all its
rows with one ``%``; nested dicts are grouped into tables by key order and
take the same path. CSV renders the table a column at a time, the dicts and
lists of a column as one ``_json_column`` made compact; text reads its few
rows as plain Python values.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import re
import sys
import time
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from . import __version__, channels, nogo, protocols, qswitch
from .protocols import (
    MessageState,
    OutcomePolicy,
    haar_message,
    run_definite_order_baseline,
)
from .qcore import (
    ATOL,
    MAX_RECEIVERS,
    CompletenessError,
    DimensionMismatchError,
    ValidityError,
    left_sum,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_VALIDITY = 3

SCHEMA_VERSION = 1
#: Records a text report lists before it elides the rest.
MAX_TEXT_RECORDS = 20

#: Variants whose every branch must reach fidelity 1.
PERFECT_VARIANTS = ("noiseless", "switch", "controlled-ops")

CSV_COLUMNS = (
    "command",
    "case",
    "branch",
    "n",
    "x",
    "variant",
    "kind",
    "detail",
    "alpha",
    "beta",
    "outcomes",
    "probability",
    "fidelity",
    "deviation",
    "witness",
    "tau",
    "bits",
    "fixed_index",
    "entanglement_breaking",
    "passed",
)

CSV_HELP = (
    "CSV reports emit one row per (case, branch) with the fixed columns: "
    + ", ".join(CSV_COLUMNS)
    + ". Cells not applying to the command are left empty; structured cells "
    "(outcomes, complex amplitudes as [re, im]) are JSON-encoded."
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _cnum(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _x_value(text: str):
    if text.upper() == "ALL":
        return "ALL"
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"x must be an integer or ALL, got {text!r}") from exc


def _seed_value(text: str) -> int:
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _tolerance_value(text: str) -> float:
    try:
        tolerance = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from exc
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and non-negative, got {text!r}"
        )
    return tolerance


def parse_complex(token: str) -> complex:
    """Parse a complex literal like '0.6', '0.8i', '-0.3+0.2i'."""
    cleaned = token.strip().replace("i", "j")
    if not cleaned:
        raise UsageError("empty complex literal")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"bad complex literal {token!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise UsageError(f"non-finite complex literal {token!r}")
    return value


_HAAR_RE = re.compile(r"^HAAR\((\d+)\)$", re.IGNORECASE)


def resolve_messages(text: str, seed: int) -> list[MessageState]:
    """Turn a message flag into concrete states.

    Accepts 'alpha,beta' complex literals (auto-normalized with a warning when
    the norm is off by more than 1e-6, however large the literals) or
    'HAAR(count)' for seeded random draws.
    """
    haar = _HAAR_RE.match(text.strip())
    if haar:
        count = int(haar.group(1))
        if count <= 0:
            raise UsageError("HAAR count must be positive")
        rng = np.random.default_rng(seed)
        return [haar_message(rng) for _ in range(count)]
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"message must be 'alpha,beta' or 'HAAR(count)', got {text!r}")
    alpha, beta = (parse_complex(p) for p in parts)
    # a pair too large to square is first scaled by a power of two, which is
    # exact and so changes no bit of the normalized amplitudes
    largest = max(abs(alpha.real), abs(alpha.imag), abs(beta.real), abs(beta.imag))
    power = 2.0 ** max(math.frexp(largest)[1] - 500, 0)
    if power > 1.0:
        alpha, beta = alpha / power, beta / power
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if norm < 1e-12:
        raise UsageError(f"message squared norm {norm:.6g} is below the floor 1e-12")
    squared_norm = norm * power * power  # inf beyond the float range
    if abs(squared_norm - 1.0) > 1e-6:
        sys.stderr.write(f"warning: normalizing message with squared norm {squared_norm:.6g}\n")
    scale = math.sqrt(norm)
    return [MessageState(alpha / scale, beta / scale)]


@dataclass
class RunConfig:
    command: str
    n: int | None = None
    x: int | str | None = None
    message: str | None = None
    variant: str | None = None
    seed: int = 0
    tolerance: float = ATOL
    trials: int | None = None
    weights: str | None = None
    expect: str | None = None
    count: int | None = None
    mean_tolerance: float | None = None
    transcript: bool = False
    output: str | None = None
    format: str = "text"

    def echo(self) -> dict:
        # presentation flags (output path, format) stay out: the report must
        # be byte-identical for identical computational configs
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("output", "format")
        }


def _json_value(value, pad: str) -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)`` with every
    line after the first also indented by ``pad``. A value ``json`` cannot
    encode raises ``json``'s own TypeError, which names the first such
    value in document order."""
    try:
        (text,) = _json_column((value,), pad)
        return text
    except TypeError:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _json_column(values, pad: str):
    """The texts of a sequence of values, in order: each is the text of
    ``json.dumps(value, sort_keys=True, indent=2)`` with every line after
    the first also indented by ``pad``.

    With an indent, ``json`` runs its pure-Python generator encoder; this
    builds the same bytes with as little Python per value as it can, for the
    values reports are made of, by one rule on the column's types. A 2-D
    integer array is the column of its rows, each a list of ints: one ``%``
    over a row template repeated once per row, cut back into rows. Values of
    exactly one of the types str, int, float, bool or None are one ``map``
    of ``_SCALAR_TEXT``, floats a second one through ``_NONFINITE`` (a
    column of one is rendered at once). Dicts whose keys are all exact strs
    are ``_json_rows``, a lone dict a group of one. Lists and tuples render
    all their items as one column, which is cut back into arrays. Any
    other column of several values is rendered one value at a time, and
    any other lone value (subclasses, enums, non-str keys, values ``json``
    rejects) is handed to ``json.dumps`` and re-indented by ``pad``, which
    is exact because ``json``'s ASCII-escaped strings never hold a raw
    newline.
    """
    if isinstance(values, np.ndarray) and values.ndim == 2 and values.dtype.kind in "iu":
        count, width = values.shape
        if not count or not width:
            return ["[]"] * count
        inner = pad + "  "
        row = "[\n" + inner + (",\n" + inner).join(["%d"] * width) + "\n" + pad + "]"
        # "\0" cannot occur in the text of an int
        return ("\0".join([row] * count) % tuple(values.ravel().tolist())).split("\0")
    if len(values) == 1:
        scalar = _SCALAR_TEXT.get(type(values[0]))
        if scalar is not None:
            text = scalar(values[0])
            return (_NONFINITE.get(text, text),)
    kinds = set(map(type, values))
    if len(kinds) == 1:
        (kind,) = kinds
        if kind in _SCALAR_TEXT:
            if kind is float:
                texts = list(map(float.__repr__, values))
                # of float texts only "nan", "inf" and "-inf" hold an "n"
                return map(_NONFINITE.get, texts, texts) if "n" in "".join(texts) else texts
            return map(_SCALAR_TEXT[kind], values)
        if kind is dict and set(map(type, itertools.chain.from_iterable(values))) <= {str}:
            return _json_rows(values, pad)
    if kinds <= {list, tuple}:
        items = list(itertools.chain.from_iterable(values))
        if not items:
            return ["[]"] * len(values)
        inner = pad + "  "
        texts = list(_json_column(items, inner))
        ends = list(itertools.accumulate(map(len, values)))
        sep = ",\n" + inner
        head, tail = "[\n" + inner, "\n" + pad + "]"
        return [
            head + sep.join(texts[start:end]) + tail if start != end else "[]"
            for start, end in zip([0, *ends], ends)
        ]
    if len(values) > 1:
        return [text for value in values for text in _json_column((value,), pad)]
    return [json.dumps(values[0], sort_keys=True, indent=2).replace("\n", "\n" + pad)]


def _json_rows(rows, pad: str) -> list[str]:
    """The texts of dicts at ``pad`` whose keys are all exact strs. Rows with
    the same keys in the same order are rendered together, as one column
    table (``_json_table``)."""
    groups: dict[tuple, list[int]] = {}
    for index, row in enumerate(rows):
        groups.setdefault(tuple(row), []).append(index)
    texts = ["{}"] * len(rows)  # what a row without keys keeps
    for order, members in groups.items():
        group = [rows[index] for index in members]
        table = {key: [row[key] for row in group] for key in order}
        for index, text in zip(members, _json_table(table, pad)):
            texts[index] = text
    return texts


def _json_table(table: dict, pad: str) -> list[str]:
    """The texts at ``pad`` of the records of a column table, as dicts whose
    keys are the table's: the sorted keys are encoded once into a row
    template, and each key's column is rendered as one ``_json_column``."""
    keys = sorted(table)
    inner = pad + "  "
    columns = [_json_column(table[key], inner) for key in keys]
    return list(map(_json_template(keys, pad).__mod__, zip(*columns)))


def _json_template(keys, pad: str) -> str:
    """The text at ``pad`` of a dict with these keys, in this order, with a
    ``%s`` in place of each value."""
    inner = pad + "  "
    names = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
    return "{\n" + inner + (",\n" + inner).join(names) + "\n" + pad + "}"


#: The text of a value of exactly one of these types, by type; a float's
#: text is ``float.__repr__``'s, spelt as ``json`` spells it (``_NONFINITE``).
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


#: ``json``'s spelling of the texts ``float.__repr__`` gives NaN and the
#: infinities; no other scalar text is one of them (a str's text is quoted).
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


#: The JSON text of a report, a ``%s`` in place of each value.
_REPORT_TEMPLATE = _json_template(
    ("config", "records", "schema_version", "summary", "version"), ""
)


def _column_values(column, stop: int | None = None) -> list:
    """The first ``stop`` entries of a column (all by default) as Python
    values: the rows of an array as lists."""
    column = column[:stop]
    return column.tolist() if isinstance(column, np.ndarray) else column


def _cell(value):
    """A CSV or text cell: dicts and lists as compact sorted JSON."""
    return json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else value


#: A comma and the line break and indent after it, and any other line
#: break and indent, in an indented JSON text: replacing the first by ", "
#: and then removing the second turns the text of ``json.dumps(value,
#: sort_keys=True, indent=2)`` into that of ``json.dumps(value,
#: sort_keys=True)``, because a JSON string never holds a raw line break.
_COMMA_BREAK, _BREAK = re.compile(r",\n *"), re.compile(r"\n *")


def _csv_cells(values: list) -> list:
    """The CSV cells of a column, each what ``_cell`` makes of its value. A
    column of dicts and lists only is rendered as one ``_json_column``,
    whose texts are joined by "\0" (which a JSON text never holds raw),
    made compact in one pass and split again. A column that mixes them with
    other values, or that ``json`` cannot encode, is handed to ``_cell`` one
    value at a time, which raises ``json``'s own error."""
    structured = [issubclass(kind, (dict, list)) for kind in set(map(type, values))]
    if not any(structured):
        return values
    if not all(structured):
        return list(map(_cell, values))
    try:
        text = "\0".join(_json_column(values, ""))
    except TypeError:
        return list(map(_cell, values))
    return _BREAK.sub("", _COMMA_BREAK.sub(", ", text)).split("\0")


@dataclass
class Report:
    """A command's report. ``records`` is a column table: key -> column, one
    entry per record, its keys in the records' key order. A column is a
    list, or a 2-D integer array whose rows are the records' lists of ints;
    every column has the same length, the record count."""

    config: dict
    records: dict
    summary: dict

    @property
    def count(self) -> int:
        return len(next(iter(self.records.values()), ()))

    def to_json(self) -> str:
        rows = _json_table(self.records, "    ")
        records = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
        config, summary = (_json_value(part, "  ") for part in (self.config, self.summary))
        version = encode_basestring_ascii(__version__)
        return _REPORT_TEMPLATE % (config, records, SCHEMA_VERSION, summary, version) + "\n"

    def to_csv(self) -> str:
        blank = [""] * self.count
        # csv writes None as an empty cell
        columns = [
            _csv_cells(_column_values(self.records[key])) if key in self.records else blank
            for key in CSV_COLUMNS
        ]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*columns))
        return buffer.getvalue()

    def to_text(self) -> str:
        lines = [f"command: {self.config['command']}"]
        for key, value in self.config.items():
            if key != "command" and value is not None:
                lines.append(f"  {key}: {value}")
        count = self.count
        lines.append(f"records: {count}")
        shown = [
            (key, _column_values(column, MAX_TEXT_RECORDS))
            for key, column in self.records.items()
            if key not in ("command", "transcript")
        ]
        for index in range(min(count, MAX_TEXT_RECORDS)):
            cells = ((key, column[index]) for key, column in shown)
            body = ", ".join(f"{k}={_cell(v)}" for k, v in cells if v is not None)
            lines.append(f"  - {body}")
        if count > MAX_TEXT_RECORDS:
            lines.append(f"  ... ({count - MAX_TEXT_RECORDS} more)")
        lines.append("summary:")
        for key, value in self.summary.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.to_text()


def _event_dict(event) -> dict:
    if isinstance(event, protocols.LocalUnitary):
        return {
            "type": "local-unitary",
            "party": str(event.party.id),
            "factors": list(event.factors),
            "gate": event.label,
        }
    if isinstance(event, protocols.LocalMeasurement):
        return {
            "type": "local-measurement",
            "party": str(event.party.id),
            "factors": list(event.factors),
            "basis": event.basis,
            "outcome": event.outcome,
        }
    if isinstance(event, protocols.ClassicalMessage):
        return {
            "type": "classical-message",
            "from": str(event.sender),
            "to": str(event.recipient),
            "bits": list(event.bits),
        }
    return {
        "type": "nonlocal-operation",
        "actor": str(event.actor),
        "factors": list(event.factors),
        "gate": event.label,
        "flagged": event.flagged,
    }


def cmd_protocol(cfg: RunConfig) -> Report:
    if cfg.variant not in protocols.VARIANTS:
        raise UsageError(f"unknown protocol variant {cfg.variant!r}")
    if cfg.n is None or not 1 <= cfg.n <= MAX_RECEIVERS:
        raise UsageError(f"--n must be in 1..{MAX_RECEIVERS}")
    xs = list(range(1, cfg.n + 1)) if cfg.x == "ALL" else [int(cfg.x)]
    if any(not 1 <= x <= cfg.n for x in xs):
        raise UsageError(f"--x must be in 1..{cfg.n} or ALL")
    messages = resolve_messages("HAAR(1)" if cfg.message is None else cfg.message, cfg.seed)
    policy = OutcomePolicy.exhaustive()
    message_alphas = [_cnum(msg.alpha) for msg in messages]
    message_betas = [_cnum(msg.beta) for msg in messages]
    cases, branches, targets, alphas, betas, outcomes = [], [], [], [], [], []
    probabilities, branch_fids, transcripts, fidelities = [], [], [], []
    for x, maps in zip(xs, protocols.branch_maps(cfg.variant, cfg.n, xs)):
        evaluation = maps.evaluate_columns(messages, policy)
        spans = evaluation.spans
        # each branch's message, and its index among that message's branches
        which = [k for k, (start, end) in enumerate(spans) for _ in range(start, end)]
        cases += [len(fidelities) + k for k in which]
        branches += [i for start, end in spans for i in range(end - start)]
        targets += [x] * len(which)
        alphas += map(message_alphas.__getitem__, which)
        betas += map(message_betas.__getitem__, which)
        sorted_outcomes = [dict(sorted(row.items())) for row in maps.outcomes]
        outcomes += map(sorted_outcomes.__getitem__, evaluation.rows)
        probabilities += evaluation.probabilities
        branch_fids += evaluation.fidelities
        if cfg.transcript:
            events = [[_event_dict(e) for e in t.events] for t in maps.transcripts]
            transcripts += map(events.__getitem__, evaluation.rows)
        fidelities += evaluation.fidelities_by_message()
    count = len(branch_fids)
    records = {
        "command": [cfg.command] * count,
        "variant": [cfg.variant] * count,
        "case": cases,
        "branch": branches,
        "n": [cfg.n] * count,
        "x": targets,
        "alpha": alphas,
        "beta": betas,
        "outcomes": outcomes,
        "probability": probabilities,
        "fidelity": branch_fids,
    }
    if cfg.transcript:
        records["transcript"] = transcripts
    summary = {
        "cases": len(fidelities),
        "branches": count,
        "min_fidelity": min(branch_fids),
        "mean_fidelity": left_sum(fidelities) / len(fidelities),
        "max_fidelity": max(branch_fids),
        "tolerance": cfg.tolerance,
    }
    if cfg.variant in PERFECT_VARIANTS:
        summary["passed"] = bool(summary["min_fidelity"] >= 1.0 - cfg.tolerance)
    else:
        summary["passed"] = None  # baseline runs are informational
    return Report(cfg.echo(), records, summary)


def cmd_validate_switch(cfg: RunConfig) -> Report:
    if cfg.n is not None and not 1 <= cfg.n <= MAX_RECEIVERS:
        raise UsageError(f"--n must be in 1..{MAX_RECEIVERS}")
    ns = (1, 2, 3) if cfg.n is None else (cfg.n,)
    trials = 20 if cfg.trials is None else cfg.trials
    if trials < 0:
        raise UsageError("--trials must be non-negative")
    result = qswitch.validate_closed_forms(cfg.seed, trials, ns, cfg.tolerance)
    count = len(result.records)
    records = {
        "command": [cfg.command] * count,
        "kind": [rec.kind for rec in result.records],
        "n": [rec.n for rec in result.records],
        "detail": [rec.detail for rec in result.records],
        "deviation": [rec.deviation for rec in result.records],
    }
    summary = {
        "comparisons": count,
        "max_deviation": result.max_deviation,
        "tolerance": result.tolerance,
        "passed": result.passed,
    }
    return Report(cfg.echo(), records, summary)


def cmd_nogo_scan(cfg: RunConfig) -> Report:
    if cfg.n is None or not nogo.SCAN_MIN <= cfg.n <= nogo.SCAN_MAX:
        raise UsageError(f"--n must be in {nogo.SCAN_MIN}..{nogo.SCAN_MAX}")
    report = nogo.fixed_bit_scan(cfg.n)
    count = report.counterexample_count
    records = {
        "command": [cfg.command] * count,
        "n": [cfg.n] * count,
        "tau": report.taus,
        "bits": report.bits,
        "fixed_index": [None] * count,  # a counterexample has no fixed slot
    }
    odd = cfg.n % 2 == 1
    passed = report.counterexample_count == 0 if odd else report.counterexample_count > 0
    summary = {
        "cells": report.cells,
        "witnessed": report.witnessed,
        "counterexamples": report.counterexample_count,
        "parity": "odd" if odd else "even",
        "passed": passed,
    }
    return Report(cfg.echo(), records, summary)


def cmd_eb_check(cfg: RunConfig) -> Report:
    if cfg.weights is None:
        raise UsageError("--weights wI,wX,wY,wZ is required")
    try:
        weights = [float(w) for w in cfg.weights.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad weights {cfg.weights!r}") from exc
    if len(weights) != 4:
        raise UsageError("exactly four weights are required")
    total = left_sum(weights)
    if not abs(total - 1.0) <= ATOL or any(w < 0 for w in weights):  # NaN fails too
        raise UsageError(f"weights must be non-negative and sum to 1, got {weights}")
    weights = [w / total for w in weights]
    channel = channels.PauliChannel(*weights)
    verdict = channels.is_entanglement_breaking_qubit(
        channels.choi(channels.pauli_kraus(channel))
    )
    records = {
        "command": [cfg.command],
        "kind": ["eb-check"],
        "detail": [cfg.weights],
        "entanglement_breaking": [verdict.entanglement_breaking],
        "witness": [verdict.witness],
    }
    passed = None
    if cfg.expect is not None:
        passed = verdict.entanglement_breaking == (cfg.expect == "eb")
    summary = {
        "entanglement_breaking": verdict.entanglement_breaking,
        "witness": verdict.witness,
        "expect": cfg.expect,
        "passed": passed,
    }
    return Report(cfg.echo(), records, summary)


def cmd_baseline_sweep(cfg: RunConfig) -> Report:
    n = 2 if cfg.n is None else cfg.n
    if not 1 <= n <= MAX_RECEIVERS:
        raise UsageError(f"--n must be in 1..{MAX_RECEIVERS}")
    x = 1 if cfg.x is None else cfg.x
    if x == "ALL" or not 1 <= x <= n:
        raise UsageError(f"--x must be in 1..{n}")
    count = 2000 if cfg.count is None else cfg.count
    if count <= 0:
        raise UsageError("--count must be positive")
    mean_tol = 0.01 if cfg.mean_tolerance is None else cfg.mean_tolerance
    rng = np.random.default_rng(cfg.seed)
    messages = [haar_message(rng) for _ in range(count)]
    fidelities = (
        protocols.branch_map("baseline", n, x)
        .evaluate_columns(messages, OutcomePolicy.sample(cfg.seed))
        .fidelities_by_message()
    )
    records = {
        "command": [cfg.command] * count,
        "case": list(range(count)),
        "n": [n] * count,
        "x": [x] * count,
        "alpha": [_cnum(msg.alpha) for msg in messages],
        "beta": [_cnum(msg.beta) for msg in messages],
        "fidelity": fidelities,
    }
    plus = run_definite_order_baseline(MessageState.plus(), n, x)
    mean = left_sum(fidelities) / count
    summary = {
        "count": count,
        "mean_fidelity": mean,
        "target_mean": 2.0 / 3.0,
        "mean_tolerance": mean_tol,
        "plus_fidelity": plus.fidelity,
        "target_plus": 0.5,
        "tolerance": cfg.tolerance,
        "passed": bool(
            abs(mean - 2.0 / 3.0) <= mean_tol
            and abs(plus.fidelity - 0.5) <= cfg.tolerance
        ),
    }
    return Report(cfg.echo(), records, summary)


COMMANDS = {
    "protocol": cmd_protocol,
    "validate-switch": cmd_validate_switch,
    "nogo-scan": cmd_nogo_scan,
    "eb-check": cmd_eb_check,
    "baseline-sweep": cmd_baseline_sweep,
}


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every
    ``main`` call; parsing leaves it unchanged."""
    # the help describes the commands and exit codes, not how reports are built
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])  # None under -OO
    parser = _Parser(prog="rrqc", description=description, epilog=CSV_HELP)
    parser.add_argument("--version", action="version", version=f"rrqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser):
        p.add_argument(
            "--seed", type=_seed_value, default=0, help="non-negative RNG seed (default 0)"
        )
        p.add_argument(
            "--tolerance",
            type=_tolerance_value,
            default=ATOL,
            help="pass threshold of the protocol and baseline-sweep summaries and of "
            f"validate-switch's Choi deviation (default {ATOL}); nogo-scan and eb-check "
            "echo it unused, and no validity check reads it",
        )
        p.add_argument("--output", help="write the report to this path instead of stdout")
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text", help="report format"
        )

    p = sub.add_parser("protocol", help="run a communication protocol", epilog=CSV_HELP)
    p.add_argument(
        "--variant", required=True, choices=sorted(protocols.VARIANTS), help="protocol to run"
    )
    p.add_argument("--n", type=int, required=True, help="receiver count")
    p.add_argument("--x", type=_x_value, default="ALL", help="target receiver or ALL")
    p.add_argument(
        "--message",
        default="HAAR(1)",
        help="message as 'alpha,beta' complex literals or HAAR(count)",
    )
    p.add_argument(
        "--transcript", action="store_true", help="include full transcripts in the report"
    )
    common(p)

    p = sub.add_parser(
        "validate-switch",
        help="compare closed-form switched channels against the generic construction",
        epilog=CSV_HELP,
    )
    p.add_argument("--n", type=int, help=f"restrict to one receiver count (1..{MAX_RECEIVERS})")
    p.add_argument("--trials", type=int, help="random draws per comparison (default 20)")
    common(p)

    p = sub.add_parser(
        "nogo-scan", help="exhaustive fixed-bit scan over routings", epilog=CSV_HELP
    )
    p.add_argument("--n", type=int, required=True, help="carrier count (2..7)")
    common(p)

    p = sub.add_parser(
        "eb-check", help="certify entanglement breaking for a Pauli channel", epilog=CSV_HELP
    )
    p.add_argument("--weights", required=True, help="four weights wI,wX,wY,wZ")
    p.add_argument(
        "--expect",
        choices=("eb", "not-eb"),
        help="fail (exit 2) when the verdict differs from this expectation",
    )
    common(p)

    p = sub.add_parser(
        "baseline-sweep",
        help="Haar-average fidelity of the definite-order baseline",
        epilog=CSV_HELP,
    )
    p.add_argument("--n", type=int, help="receiver count (default 2)")
    p.add_argument("--x", type=_x_value, help="target receiver (default 1)")
    p.add_argument("--count", type=int, help="number of Haar samples (default 2000)")
    p.add_argument(
        "--mean-tolerance",
        type=_tolerance_value,
        help="allowed deviation of the Haar mean from 2/3 (default 0.01)",
    )
    common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # each subcommand defines only the flags it takes
    return RunConfig(
        **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    started = time.perf_counter()
    try:
        report = COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        sys.stderr.write(f"rrqc: error: {exc}\n")
        return EXIT_USAGE
    except (ValidityError, CompletenessError, DimensionMismatchError, protocols.LocalityError) as exc:
        sys.stderr.write(f"rrqc: numerical validity violation: {exc}\n")
        return EXIT_VALIDITY
    elapsed = time.perf_counter() - started
    rendered = report.render(cfg.format)
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            sys.stderr.write(f"rrqc: error: cannot write report to {cfg.output}: {exc}\n")
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    sys.stderr.write(f"elapsed {elapsed:.3f}s\n")
    passed = report.summary.get("passed")
    return EXIT_OK if passed in (None, True) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
