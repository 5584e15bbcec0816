"""The seeded generator: same seed, same bytes; inputs inside the domain."""

import numpy as np
from goaltime.ingest import parse_game_log

import inputs


def _all(seed):
    return (inputs.matchups(seed), inputs.domain_points(seed), inputs.risk_points(seed),
            inputs.log_pairs(seed, 4))


def test_same_seed_gives_identical_inputs():
    assert _all(7) == _all(7)


def test_other_seed_gives_other_inputs():
    a, b = _all(7), _all(8)
    assert all(x != y for x, y in zip(a, b))


def test_logs_parse_within_limits():
    for m in inputs.matchups(3):
        for team, log in ((m.team_a, m.log_a), (m.team_b, m.log_b)):
            records = parse_game_log(log)
            if not m.fixture:
                assert 10 <= len(records) <= 82
            assert all(r.team == team and 0 < r.elapsed_minutes <= 60 for r in records)


def test_each_matchup_round_covers_every_integer_shape_with_the_fixture():
    pool = inputs.matchups(11, passes=3)
    assert len(pool) == 60
    for k in range(0, 60, 20):
        rnd = pool[k:k + 20]
        assert sorted((m.r, m.r_prime) for m in rnd) == [
            (r, rp) for r in range(2, 6) for rp in range(1, 6)]
        (fixture,) = [m for m in rnd if m.fixture]
        assert (fixture.r, fixture.r_prime) == (3.0, 3.0)
    assert len({m.log_a for m in pool}) == 58


def test_domain_points_fixed_edge_share_and_non_integer_main_part():
    points = inputs.domain_points(5)
    edges = [i for i, p in enumerate(points) if p.kind != "main"]
    assert edges == list(range(inputs.EDGE_EVERY - 1, len(points), inputs.EDGE_EVERY))
    main = [p for p in points if p.kind == "main"]
    assert all(1.5 <= p.r1 <= 6 and 1.5 <= p.r2 <= 6 and 0.5 <= p.r_prime <= 6 for p in main)
    assert all(p.r1 != int(p.r1) for p in main)


def test_risk_points_cycle_the_ratio_grid_and_windows():
    points = inputs.risk_points(2)
    assert [p.ratio for p in points[:7]] == list(inputs.RISK_RATIOS)
    assert [p.window for p in points[:2]] == [None, inputs.WINDOW]
    assert all(p.r1 in (2, 3, 4, 5) for p in points)


def test_elapsed_times_truncated_and_rounded():
    t = inputs.elapsed_times(np.random.default_rng(0), 5.0, 16.0, 500)
    assert t.size == 500 and t.min() > 0 and t.max() <= 60
    assert np.allclose(t, np.round(t, 2))
