"""Seeded fuzzing of the inputs the package reads, against the contract: a
trace row is parsed to exactly the reference parse's record, or refused
with exactly its message. Runs in a few seconds and starts no thread or
process."""

import random

from conftest import record_bits
from oracles import reference_parse_lines

from thermoshift.errors import TraceFormatError
from thermoshift.harness import CSV_HEADER, parse_trace

# Good rows: a plain LARGE row, a shift row with its own overhead, a live
# row with every optional column blank, a throttle row, signed zeros, and
# finite values whose sums overflow.
GOOD_ROWS = (
    "1,50,49,-0.01,2.86,LARGE,0.205,0,none,0",
    "2,51.2,50.9,0.003,2.86,SMALL,0.107,0.098,shift_to_small,1.53",
    "3,52,,,,LARGE,,,none,",
    "4,77.5,70.1,0.01,2.05,LARGE,0.286,0,throttle_on,0",
    "5,-0,,-0,-0,SMALL,0,-0,throttle_off,-0",
    "1.7e308,50,,,1.7e308,LARGE,1.7e308,0,none,1.7e308",
)

# Column texts that sit on an edge of the row grammar, a missing comma (the
# column is glued to its neighbour), and a comma inside a column.
MISSING_COMMA = object()
EDGE_TEXTS = ("nan", "-inf", "1e999", "1.7e308", "", "fast", "-0", " 1", "1_0", "MEDIUM",
              "melt", "SMALL", "shift_to_large", "1,2", MISSING_COMMA)
CASES = 1500


def mutated_row(rng):
    """A good row with one or two of its columns given an edge text."""
    fields = rng.choice(GOOD_ROWS).split(",")
    for i in sorted(rng.sample(range(len(fields)), rng.choice((1, 2))), reverse=True):
        text = rng.choice(EDGE_TEXTS)
        if text is MISSING_COMMA:
            j = min(i, len(fields) - 2)
            fields[j:j + 2] = [fields[j] + fields[j + 1]]
        else:
            fields[i] = text
    return ",".join(fields)


def outcome(parse, path):
    """The bits of every record ``parse(path)`` gives, or the message it raises."""
    try:
        return [record_bits(r) for r in parse(path)]
    except TraceFormatError as exc:
        return str(exc)


def reference_parse(path):
    with open(path) as fh:
        return reference_parse_lines(path, fh)


def tail(row):
    """The text ``parse_trace`` keys a row's values by: from ``freq`` to ``event``."""
    return row.split(",", 4)[-1].rpartition(",")[0]


class TestTraceRowFuzz:
    def test_rows_parse_as_the_reference_or_give_its_message(self, tmp_path):
        """Each mutated row, read as the first row and again after a good row
        with the same tail text, gives the reference's records or message."""
        rng = random.Random(26)
        path = tmp_path / "t.csv"
        kinds = {"records": 0, "message": 0, "after-its-tail": 0}
        for _ in range(CASES):
            row = mutated_row(rng)
            seen = f"1,50,,,{tail(row)},0"
            path.write_text(f"{CSV_HEADER}\n{seen}\n")
            if isinstance(outcome(reference_parse, path), list):
                kinds["after-its-tail"] += 1
            else:
                seen = GOOD_ROWS[0]
            for head in ([CSV_HEADER], [CSV_HEADER, seen]):
                path.write_text("\n".join([*head, row, "", GOOD_ROWS[0], ""]))
                expected = outcome(reference_parse, path)
                assert outcome(parse_trace, path) == expected, "\n".join([*head, row])
                kinds["records" if isinstance(expected, list) else "message"] += 1
        # Both outcomes, and rows whose tail the parse had already kept, are common.
        assert min(kinds.values()) > CASES / 5, kinds
