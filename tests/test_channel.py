import numpy as np
import pytest

from voxfec.channel import (
    LossTrace,
    Markov3Params,
    PRESETS,
    gen_bernoulli,
    gen_markov3,
    load_trace,
    save_trace,
    stationary_loss_rate,
    trace_stats,
)


def test_bernoulli_degenerate():
    assert not gen_bernoulli(0.0, 1000, seed=1).flags.any()
    assert gen_bernoulli(1.0, 1000, seed=1).flags.all()


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_bernoulli_rejects_probability_outside_unit_interval(p):
    with pytest.raises(ValueError, match="out of range"):
        gen_bernoulli(p, 10, seed=1)


def test_bernoulli_rate_within_binomial_bounds():
    n = 100_000
    p = 0.3
    tr = gen_bernoulli(p, n, seed=123)
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(tr.loss_rate - p) <= 3 * sigma


def test_determinism():
    a = gen_bernoulli(0.25, 5000, seed=99)
    b = gen_bernoulli(0.25, 5000, seed=99)
    assert np.array_equal(a.flags, b.flags)
    c = gen_bernoulli(0.25, 5000, seed=100)
    assert not np.array_equal(a.flags, c.flags)
    p = PRESETS["burst10"]
    m1 = gen_markov3(p, 5000, seed=7)
    m2 = gen_markov3(p, 5000, seed=7)
    assert np.array_equal(m1.flags, m2.flags)


def two_state_embed():
    # good/bad chain with an unreachable third state that exits back to good
    t = np.array([[0.9, 0.1, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    return Markov3Params(t, np.array([0.0, 1.0, 0.0]))


def test_markov_all_received_when_theta_zero():
    p = Markov3Params(np.full((3, 3), 1 / 3), np.zeros(3))
    assert not gen_markov3(p, 2000, seed=3).flags.any()


def test_markov_identity_all_lost_from_loss_state():
    p = Markov3Params(np.eye(3), np.array([0.0, 1.0, 0.0]), initial_state=1)
    assert gen_markov3(p, 500, seed=4).flags.all()


def test_markov_two_state_embed_rate():
    p = two_state_embed()
    assert stationary_loss_rate(p) == pytest.approx(1 / 6, abs=1e-12)
    tr = gen_markov3(p, 1_000_000, seed=11)
    assert abs(tr.loss_rate - 1 / 6) < 0.01 * 1 / 6 + 1e-3


def test_stationary_uniform_symmetric():
    t = np.full((3, 3), 1 / 3)
    p = Markov3Params(t, np.array([0.2, 0.4, 0.6]))
    assert stationary_loss_rate(p) == pytest.approx(0.4, abs=1e-12)


def test_stationary_identity_rejected():
    p = Markov3Params(np.eye(3), np.ones(3))
    with pytest.raises(ValueError, match="no unique stationary distribution"):
        stationary_loss_rate(p)


def test_markov_invalid_matrix_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        Markov3Params(np.full((3, 3), 0.5), np.zeros(3))
    with pytest.raises(ValueError, match="negative"):
        Markov3Params(
            np.array([[1.5, -0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.zeros(3),
        )


def test_presets_analytic_rates():
    assert stationary_loss_rate(PRESETS["burst10"]) == pytest.approx(0.1, abs=1e-12)
    assert stationary_loss_rate(PRESETS["burst30"]) == pytest.approx(0.3, abs=1e-12)


def test_presets_empirical_match():
    for name, want in (("burst10", 0.1), ("burst30", 0.3)):
        tr = gen_markov3(PRESETS[name], 1_000_000, seed=17)
        assert abs(tr.loss_rate - want) < 0.01 * want + 1e-3, name


def test_preset_burst10_mean_burst_length():
    tr = gen_markov3(PRESETS["burst10"], 1_000_000, seed=23)
    st = trace_stats(tr)
    total = sum(k * v for k, v in st.burst_histogram.items())
    count = sum(st.burst_histogram.values())
    assert total / count == pytest.approx(4.0, rel=0.05)


def test_trace_file_round_trip(tmp_path):
    tr = gen_bernoulli(0.4, 500, seed=5)
    path = tmp_path / "t.txt"
    save_trace(path, tr)
    back = load_trace(path)
    assert np.array_equal(back.flags, tr.flags)
    assert back.origin == "file"


def test_trace_file_parse():
    import os, tempfile

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.txt")
        with open(path, "w") as fh:
            fh.write("0\n1\n\n1\n0\n")
        tr = load_trace(path)
        assert tr.flags.tolist() == [False, True, True, False]


def test_trace_file_bad_token_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0\n1\n2\n")
    with pytest.raises(ValueError, match="line 3"):
        load_trace(path)


def test_trace_stats_counting():
    tr = LossTrace(np.array([False, True, True, False, True]), "file")
    st = trace_stats(tr)
    assert st.loss_rate == pytest.approx(0.6)
    assert st.burst_histogram == {1: 1, 2: 1}
    assert st.max_burst == 2


def test_trace_stats_all_received():
    tr = LossTrace(np.array([False, False, False]), "file")
    st = trace_stats(tr)
    assert st.loss_rate == 0.0
    assert st.burst_histogram == {}
    assert st.max_burst == 0


def test_bernoulli_burst_lengths_geometric():
    # burst lengths of an i.i.d. channel are geometric with mean 1/(1-p)
    p = 0.3
    tr = gen_bernoulli(p, 100_000, seed=31)
    st = trace_stats(tr)
    total = sum(k * v for k, v in st.burst_histogram.items())
    count = sum(st.burst_histogram.values())
    assert total / count == pytest.approx(1 / (1 - p), rel=0.03)


def test_empty_trace_rejected():
    with pytest.raises(ValueError, match="empty trace"):
        LossTrace(np.array([], dtype=bool), "file")
