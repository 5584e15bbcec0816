import csv
import dataclasses
import hashlib
import io
import math
import pickle
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goaltime.errors import EmptySelectionError, GameLogError
from goaltime.ingest import (
    GameRecord,
    SeasonPoints,
    canadiens_fixture_path,
    parse_game_log,
    parse_points,
    points_fixture_path,
    reduce_to_stat,
    serialize_game_log,
    toronto_fixture_path,
)

# fixtures are frozen data; any edit must be deliberate
FIXTURE_SHA256 = {
    "toronto_2017_18.csv": "4b626ca99f12a67ebe3161c36332661693638b506ccbb6b1ee7483bcb2a1e41b",
    "canadiens_2017_18.csv": "d1b5adcbc21354fe73b664601b092113502112df52e75a13b1293ee24ca28425",
    "points_2017_18.csv": "56c521dd0068029b0515b0d4dc55be157b91919c780dd820b5a46628fd60236d",
}


class TestFixtures:
    def test_checksums(self):
        for path in (toronto_fixture_path(), canadiens_fixture_path(), points_fixture_path()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == FIXTURE_SHA256[path.name], path.name

    def test_toronto_row_count_and_mean(self):
        records = parse_game_log(toronto_fixture_path())
        assert len(records) == 50
        stat = reduce_to_stat(records, "Toronto Maple Leafs")
        assert stat.x == pytest.approx(35.85, abs=0.01)
        assert stat.r == 3.0

    def test_canadiens_row_count_and_mean(self):
        records = parse_game_log(canadiens_fixture_path())
        assert len(records) == 38
        stat = reduce_to_stat(records, "Montreal Canadiens")
        assert stat.x == pytest.approx(39.07, abs=0.01)

    def test_points(self):
        pts = {p.team: p.points for p in parse_points(points_fixture_path())}
        assert pts == {"Toronto Maple Leafs": 105, "Montreal Canadiens": 71}


class TestParseGameLog:
    def test_empty_file_with_header(self):
        assert parse_game_log(b"team,opponent,elapsed_minutes\n") == []

    def test_roundtrip(self):
        records = parse_game_log(toronto_fixture_path())
        buf = io.StringIO()
        serialize_game_log(records, buf)
        again = parse_game_log(buf.getvalue().encode())
        assert again == records

    def test_optional_goal_index_column(self):
        records = parse_game_log(b"team,opponent,elapsed_minutes,goal_index\nA,B,12.5,4\n")
        assert records == [GameRecord("A", "B", 12.5, 4)]

    def test_default_goal_index(self):
        records = parse_game_log(b"team,opponent,elapsed_minutes\nA,B,12.5\n")
        assert records[0].goal_index == 3

    def test_missing_header(self):
        with pytest.raises(GameLogError) as exc:
            parse_game_log(b"A,B,12.5\n")
        assert exc.value.line == 1

    def test_malformed_row_carries_line_number(self):
        data = b"team,opponent,elapsed_minutes\nA,B,12.5\nA,B,oops\n"
        with pytest.raises(GameLogError) as exc:
            parse_game_log(data)
        assert exc.value.line == 3

    def test_out_of_range_elapsed_time(self):
        with pytest.raises(GameLogError) as exc:
            parse_game_log(b"team,opponent,elapsed_minutes\nA,B,61.0\n")
        assert exc.value.line == 2
        with pytest.raises(GameLogError):
            parse_game_log(b"team,opponent,elapsed_minutes\nA,B,0\n")

    def test_team_equal_opponent_rejected(self):
        with pytest.raises(GameLogError):
            parse_game_log(b"team,opponent,elapsed_minutes\nA,A,10.0\n")

    def test_wrong_field_count(self):
        with pytest.raises(GameLogError) as exc:
            parse_game_log(b"team,opponent,elapsed_minutes\nA,B\n")
        assert exc.value.line == 2

    def test_line_number_counts_quoted_line_breaks(self):
        # the quoted team name spans lines 2 and 3, so the bad row is on
        # line 4, not the third row
        data = b'team,opponent,elapsed_minutes\n"A\nA",B,10\nA,B,oops\n'
        with pytest.raises(GameLogError, match="^line 4: bad elapsed_minutes") as exc:
            parse_game_log(data)
        assert exc.value.line == 4


class TestReduce:
    def records(self):
        return [
            GameRecord("A", "B", 10.0),
            GameRecord("A", "C", 20.0),
            GameRecord("B", "A", 40.0),
        ]

    def test_single_record(self):
        stat = reduce_to_stat([GameRecord("A", "B", 17.5)], "A")
        assert stat.x == 17.5

    def test_mean_reduction(self):
        assert reduce_to_stat(self.records(), "A").x == pytest.approx(15.0)

    def test_permutation_invariant(self):
        recs = self.records()
        assert reduce_to_stat(recs, "A") == reduce_to_stat(list(reversed(recs)), "A")

    def test_scaling_elapsed_scales_stat(self):
        recs = self.records()
        c = 1.4  # keeps every value inside the 60-minute cap
        scaled = [
            GameRecord(r.team, r.opponent, r.elapsed_minutes * c, r.goal_index) for r in recs
        ]
        assert reduce_to_stat(scaled, "A").x == pytest.approx(c * reduce_to_stat(recs, "A").x)

    def test_points_ratio_modes(self):
        recs = self.records()
        base = reduce_to_stat(recs, "A").x
        lin = reduce_to_stat(recs, "A", x2_mode="points_ratio", points=(71, 105))
        sq = reduce_to_stat(recs, "A", x2_mode="points_ratio_squared", points=(71, 105))
        assert lin.x == pytest.approx(base * 105 / 71)
        assert sq.x == pytest.approx(base * (105 / 71) ** 2)

    def test_mode_requires_points(self):
        with pytest.raises(GameLogError):
            reduce_to_stat(self.records(), "A", x2_mode="points_ratio")
        with pytest.raises(GameLogError):
            reduce_to_stat(self.records(), "A", x2_mode="nope")

    def test_empty_selection(self):
        with pytest.raises(EmptySelectionError):
            reduce_to_stat(self.records(), "Z")


# each record type with a valid instance's fields, keyword arguments that
# its constructor rejects and the message it raises
RECORD_CASES = [
    pytest.param(
        GameRecord,
        dict(team="A", opponent="B", elapsed_minutes=12.5, goal_index=4),
        [
            (dict(team=""), "team and opponent must be non-empty"),
            (dict(opponent=""), "team and opponent must be non-empty"),
            (dict(opponent="A"), "team equals opponent: 'A'"),
            (dict(elapsed_minutes=0.0), "elapsed_minutes 0.0 outside (0, 60.0]"),
            (dict(elapsed_minutes=60.000001), "elapsed_minutes 60.000001 outside (0, 60.0]"),
            (dict(elapsed_minutes=-1.0), "elapsed_minutes -1.0 outside (0, 60.0]"),
            (dict(elapsed_minutes=math.nan), "elapsed_minutes nan outside (0, 60.0]"),
            (dict(goal_index=0), "goal_index 0 must be >= 1"),
        ],
        id="GameRecord",
    ),
    pytest.param(
        SeasonPoints,
        dict(team="A", points=105),
        [(dict(team=""), "team must be non-empty"), (dict(points=0), "points 0 must be positive")],
        id="SeasonPoints",
    ),
]


class TestRecordDataclasses:
    """The records stay frozen dataclasses whose constructor validates."""

    @pytest.mark.parametrize("cls, kwargs, rejected", RECORD_CASES)
    def test_fields_in_order_and_keyword_construction(self, cls, kwargs, rejected):
        assert dataclasses.is_dataclass(cls)
        assert [f.name for f in dataclasses.fields(cls)] == list(kwargs)
        rec = cls(**kwargs)
        assert rec == cls(*kwargs.values())
        assert dataclasses.astuple(rec) == tuple(kwargs.values())

    def test_goal_index_defaults_to_3(self):
        assert dataclasses.fields(GameRecord)[-1].default == 3
        assert GameRecord(team="A", opponent="B", elapsed_minutes=1.0).goal_index == 3

    @pytest.mark.parametrize("cls, kwargs, rejected", RECORD_CASES)
    def test_frozen(self, cls, kwargs, rejected):
        rec = cls(**kwargs)
        for name in kwargs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, kwargs[name])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
        assert dataclasses.astuple(rec) == tuple(kwargs.values())

    @pytest.mark.parametrize("cls, kwargs, rejected", RECORD_CASES)
    def test_eq_hash_and_repr(self, cls, kwargs, rejected):
        rec = cls(**kwargs)
        twin = cls(**kwargs)
        assert rec == twin and rec is not twin
        assert hash(rec) == hash(twin) == hash(tuple(kwargs.values()))
        assert rec != cls(**{**kwargs, "team": "Z"})
        assert rec != tuple(kwargs.values())
        fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
        assert repr(rec) == f"{cls.__name__}({fields})"
        assert pickle.loads(pickle.dumps(rec)) == rec

    @pytest.mark.parametrize("cls, kwargs, rejected", RECORD_CASES)
    def test_constructor_messages(self, cls, kwargs, rejected):
        for change, message in rejected:
            with pytest.raises(GameLogError) as exc:
                cls(**{**kwargs, **change})
            assert str(exc.value) == message
            assert exc.value.line is None

    @pytest.mark.parametrize("cls, kwargs, rejected", RECORD_CASES)
    def test_replace_validates_again(self, cls, kwargs, rejected):
        rec = cls(**kwargs)
        for change, message in rejected:
            with pytest.raises(GameLogError) as exc:
                dataclasses.replace(rec, **change)
            assert str(exc.value) == message
        name = next(iter(kwargs))
        moved = dataclasses.replace(rec, **{name: "Z"})
        assert moved == cls(**{**kwargs, name: "Z"})
        assert rec == cls(**kwargs)

    @pytest.mark.parametrize("cls, kwargs, rejected", RECORD_CASES)
    def test_arguments_are_checked_by_count_and_name(self, cls, kwargs, rejected):
        with pytest.raises(TypeError):
            cls(*kwargs.values(), 1)
        with pytest.raises(TypeError):
            cls(**kwargs, extra=1)
        with pytest.raises(TypeError):
            cls("A")


class TestSeasonPoints:
    def test_validation(self):
        with pytest.raises(GameLogError):
            SeasonPoints("A", 0)
        with pytest.raises(GameLogError):
            SeasonPoints("", 10)

    def test_parse_points_line_numbers(self):
        with pytest.raises(GameLogError) as exc:
            parse_points(b"team,points\nA,many\n")
        assert exc.value.line == 2


# each parser with its header, three records, the mean it feeds, and a
# row with one non-blank cell and the wrong field count
BLANK_ROW_CASES = [
    pytest.param(
        parse_game_log, "team,opponent,elapsed_minutes", ["A,B,10.0", "A,C,20.0", "A,D,40.0"],
        lambda records: reduce_to_stat(records, "A").x, " , , , x", "expected 3 fields, got 4",
        id="parse_game_log",
    ),
    pytest.param(
        parse_points, "team,points", ["A,105", "B,71", "C,90"],
        lambda records: sum(p.points for p in records) / len(records), " , , x", "expected 2 fields, got 3",
        id="parse_points",
    ),
]


class TestBlankRows:
    @pytest.mark.parametrize("parse, header, rows, mean, bad_row, message", BLANK_ROW_CASES)
    def test_blank_rows_are_skipped(self, parse, header, rows, mean, bad_row, message):
        # an empty line, a line of blank cells and a whitespace-only line
        plain = "\n".join([header] + rows) + "\n"
        blanks = "\n".join([header, "", rows[0], " , , ", rows[1], "   \t ", rows[2], ""]) + "\n"
        want = parse(plain.encode())
        got = parse(blanks.encode())
        assert len(got) == 3
        assert got == want
        assert mean(got) == mean(want)

    @pytest.mark.parametrize("parse, header, rows, mean, bad_row, message", BLANK_ROW_CASES)
    def test_one_non_blank_cell_is_a_field_count_error(self, parse, header, rows, mean, bad_row, message):
        text = "\n".join([header, rows[0], "", bad_row, rows[1]]) + "\n"
        with pytest.raises(GameLogError, match=message) as exc:
            parse(text.encode())
        assert exc.value.line == 4


# each parser with its header, a good row, a row with a bad number, and a
# row its record constructor rejects
READER_CASES = [
    pytest.param(
        parse_game_log, "team,opponent,elapsed_minutes", "A,B,10.0", "A,B,ten", "A,A,10.0", id="parse_game_log"
    ),
    pytest.param(parse_points, "team,points", "A,105", "A,many", "A,0", id="parse_points"),
]


class TestReaderContract:
    @pytest.mark.parametrize("parse, header, good, bad_number, rejected", READER_CASES)
    def test_empty_file(self, parse, header, good, bad_number, rejected):
        with pytest.raises(GameLogError, match="empty file") as exc:
            parse(b"")
        assert exc.value.line == 1

    @pytest.mark.parametrize("parse, header, good, bad_number, rejected", READER_CASES)
    def test_wrong_header(self, parse, header, good, bad_number, rejected):
        with pytest.raises(GameLogError, match="header must be") as exc:
            parse(f"{header}x\n{good}\n".encode())
        assert exc.value.line == 1

    @pytest.mark.parametrize("parse, header, good, bad_number, rejected", READER_CASES)
    def test_bad_number(self, parse, header, good, bad_number, rejected):
        with pytest.raises(GameLogError, match="^line 4: bad ") as exc:
            parse(f"{header}\n{good}\n\n{bad_number}\n".encode())
        assert exc.value.line == 4

    @pytest.mark.parametrize("parse, header, good, bad_number, rejected", READER_CASES)
    def test_record_rejected_by_its_constructor(self, parse, header, good, bad_number, rejected):
        with pytest.raises(GameLogError) as exc:
            parse(f"{header}\n{good}\n{good}\n{rejected}\n".encode())
        assert exc.value.line == 4


def unreadable_inputs(header, good):
    """(name, data, line, message) of a file the reader cannot read as
    UTF-8 comma-separated text: a byte that is not UTF-8 on line 2, and a
    quoted field one character over ``csv.field_size_limit()`` on line 3."""
    huge = '"' + "x" * (csv.field_size_limit() + 1) + '"'
    bad_byte = f"{header}\n".encode() + b"\xe9" + f"{good}\n{good}\n".encode()
    return [
        ("not UTF-8", bad_byte, 2, "not UTF-8: byte 0xe9"),
        ("huge field", f"{header}\n{good}\n{huge}{good}\n".encode(), 3, "field larger than field limit"),
    ]


def sources(data, tmp_path):
    """``data`` as bytes, a path and a binary file object."""
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    return [data, path, io.BytesIO(data)]


class TestUnreadableFiles:
    @pytest.mark.parametrize("parse, header, good, bad_number, rejected", READER_CASES)
    def test_is_a_game_log_error_with_its_line(self, tmp_path, parse, header, good, bad_number, rejected):
        for name, data, line, message in unreadable_inputs(header, good):
            for source in sources(data, tmp_path):
                with pytest.raises(GameLogError, match=f"^line {line}: {message}") as exc:
                    parse(source)
                assert exc.value.line == line, (name, source)

    @pytest.mark.parametrize("parse, header, good, bad_number, rejected", READER_CASES)
    def test_text_file_object_whose_decoder_fails(self, parse, header, good, bad_number, rejected):
        # the file object's own decoder raises, before the reader sees text
        data = f"{header}\n".encode() + b"A\xe9" + f"{good}\n".encode()
        with pytest.raises(GameLogError, match="^not ascii: byte 0xe9$") as exc:
            parse(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
        assert exc.value.line is None

    @pytest.mark.parametrize("parse, header, good, bad_number, rejected", READER_CASES)
    def test_bare_carriage_returns_read_from_every_source(self, tmp_path, parse, header, good, bad_number, rejected):
        want = parse(f"{header}\n{good}\n{good}\n".encode())
        assert len(want) == 2
        for source in sources(f"{header}\r{good}\r{good}\r".encode(), tmp_path):
            assert parse(source) == want


_HEADER = "team,opponent,elapsed_minutes,goal_index\n"
# stripped, non-empty team names, with the characters the writer quotes
_NAMES = st.text(
    alphabet=st.one_of(st.sampled_from(',"\r\n AB'), st.characters(exclude_categories=("Cs",))),
    min_size=1,
    max_size=12,
).filter(lambda name: name == name.strip())
_RECORDS = st.lists(
    st.tuples(
        _NAMES,
        _NAMES,
        st.floats(min_value=0.0, max_value=60.0, exclude_min=True),
        st.integers(min_value=1, max_value=10**6),
    ).filter(lambda row: row[0] != row[1]),
    max_size=8,
)
# rows of nothing but whitespace, the header's width among them
_BLANK_ROWS = st.sampled_from(["", " ", "\t \t", " , , , ", ",,,", " ,\t", "\u3000"])


def _line_breaks(text: str) -> int:
    """Line ends in ``text`` as the reader counts them: ``\r\n``, ``\r`` or ``\n``."""
    return len(re.findall("\r\n|\r|\n", text))


def _every_source(data: bytes, directory: Path):
    """``data`` as bytes, a path, and binary and text file objects."""
    return sources(data, directory) + [io.StringIO(data.decode("utf-8"))]


class TestRoundTrip:
    @given(
        rows=_RECORDS,
        blanks=st.lists(st.tuples(st.integers(min_value=0, max_value=8), _BLANK_ROWS), max_size=4),
        bad=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_serialize_then_parse(self, rows, blanks, bad):
        # serialize_game_log then parse_game_log gives back equal records
        # from every source; whitespace-only rows put anywhere are skipped,
        # and a bad row after them is numbered by the line it is on
        records = [GameRecord(*row) for row in rows]
        buf = io.StringIO()
        serialize_game_log(records, buf)
        text = buf.getvalue()
        assert text.startswith(_HEADER)
        lines = []
        for rec in records:
            one = io.StringIO()
            serialize_game_log([rec], one)
            lines.append(one.getvalue()[len(_HEADER) :])
        assert _HEADER + "".join(lines) == text
        for at, blank in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), blank + "\n")
        body = _HEADER + "".join(lines)
        if bad:
            body += "A,B,oops,3\n"
        with tempfile.TemporaryDirectory() as tmp:
            for source in _every_source(body.encode("utf-8"), Path(tmp)):
                if not bad:
                    assert parse_game_log(source) == records
                    continue
                with pytest.raises(GameLogError, match="bad elapsed_minutes 'oops'") as exc:
                    parse_game_log(source)
                assert exc.value.line == _line_breaks(body)
