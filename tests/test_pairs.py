"""Registry rows, reference-parameter round trips, and shape matching."""

import math

import numpy as np
import pytest

from nablainv import (
    classify,
    describe_roc,
    lookup,
    pair,
    parse_expression,
    reference_pairs,
    round_trip_error,
    sample_points,
)


class TestRegistry:
    def test_reference_set_covers_all_rows(self):
        rows = sorted({tp.row for tp in reference_pairs()})
        assert rows == list(range(1, 17))

    def test_roundtrip_smoke(self):
        for tp in reference_pairs():
            points = sample_points(tp.radius, count=4)
            assert round_trip_error(tp.sequence, tp.transform, points) < 1e-8, tp.describe()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pair(4, gamma=0.0)
        with pytest.raises(ValueError):
            pair(7, lam=1.0)  # empty disk
        with pytest.raises(ValueError):
            pair(8, lam=0.3, N=0)
        with pytest.raises(ValueError):
            pair(2, bogus=1)
        with pytest.raises(ValueError):
            pair(17)

    def test_describe_mentions_row(self):
        text = pair(4, gamma=0.5).describe()
        assert text.startswith("row 4") and "0.5^(k-a-1)" in text


def _conjugate_gap(tp):
    """max |F(conj s) - conj F(s)| / max(1, |F(s)|) over 30 points inside
    the pair's disk."""
    s = np.array(sample_points(tp.radius, count=30))
    want = np.conj(np.broadcast_to(np.asarray(tp(s), dtype=complex), s.shape))
    got = np.broadcast_to(np.asarray(tp(np.conj(s)), dtype=complex), s.shape)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


class TestIsReal:
    """A pair is real when every parameter is: the CLI inverts it, and its
    quadrature samples half the circle."""

    @pytest.mark.parametrize("tp", reference_pairs(), ids=lambda tp: f"row{tp.row}")
    def test_every_reference_row_is_real(self, tp):
        assert tp.is_real is True
        assert _conjugate_gap(tp) <= 1e-15

    @pytest.mark.parametrize("tp", [pair(6, gamma=0.5 + 0.5j, alpha=0.5),
                                    pair(10, alpha=0.5, lam=0.3j)],
                             ids=["row6", "row10"])
    def test_complex_parameters_are_not_real(self, tp):
        assert tp.is_real is False
        assert _conjugate_gap(tp) > 1e-3


class TestSamplePoints:
    def test_points_lie_inside(self):
        for tp in reference_pairs():
            for s in sample_points(tp.radius, count=8):
                assert abs(1.0 - s) < tp.radius

    def test_count(self):
        assert len(sample_points(pair(2).radius, count=8)) == 8


class TestLookupExamples:
    def test_geometric_row(self):
        hit = lookup("1/(1-0.5+0.5*s)")
        assert hit.row == 4
        assert dict(hit.params)["gamma"] == pytest.approx(0.5)
        assert hit.sequence_text == "0.5^(k-a-1)"
        assert describe_roc(hit.radius) == "|1-s| < 2"

    def test_sine_row(self):
        w = math.pi / 6
        hit = lookup(f"sin({w})*(1-s)/(1-2*cos({w})*(1-s)+(1-s)^2)")
        assert hit.row == 13
        assert dict(hit.params)["omega"] == pytest.approx(w)

    def test_no_match_for_cubic(self):
        assert lookup("s^3+2") is None

    def test_no_match_for_unsupported(self):
        import nablainv.parsing as parsing

        ast = parsing.parse_expression("(s^2+1)^0.5")
        assert lookup(ast) is None

    def test_accepts_a_classified_expression(self):
        text = "1.4*s^0.4*(1-s)/(s^1.4-0.9)^2"
        hit = lookup(classify(parse_expression(text)))
        assert hit.describe() == lookup(text).describe()

    def test_row10_with_the_pole_written_lam_minus_power(self):
        # (0.3 - s^0.5)^2 = (s^0.5 - 0.3)^2: the same transform as row 10
        hit = lookup("0.5*s^-0.5*(1-s)/(0.3-s^0.5)^2")
        assert (hit.row, dict(hit.params)) == (10, {"alpha": 0.5, "lam": 0.3})
        assert lookup("-0.5*s^-0.5*(1-s)/(0.3-s^0.5)^2") is None

    def test_row6_with_the_base_written_two_minus_s(self):
        hit = lookup("1/(2-s)^1.5")
        assert (hit.row, dict(hit.params)) == (6, {"gamma": -1.0, "alpha": 0.5})


class TestLookupAllRows:
    """Each reference transform, rendered as text, is recognized again."""

    # rows 11 and 12 share the geometric shape 1/(1 - c(1-s)); the matcher
    # returns the lowest-numbered row, whose sequence is numerically the same
    EXPECTED_ROW = {11: 4, 12: 4}

    # complex parameters print in parentheses, so their text parses back too
    @pytest.mark.parametrize("tp", reference_pairs() + [
        pair(6, gamma=0.5 + 0.5j, alpha=0.5), pair(7, lam=0.3 - 0.2j),
    ], ids=lambda tp: f"row{tp.row}-{tp.params}")
    def test_transform_text_matches(self, tp):
        hit = lookup(tp.transform_text)
        assert hit is not None, tp.transform_text
        assert hit.row == self.EXPECTED_ROW.get(tp.row, tp.row)
        for m in range(1, 13):
            want = complex(tp.sequence(m))
            got = complex(hit.sequence(m))
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_matched_parameters_round(self):
        hit = lookup("1/(s-0.3)^2")
        assert hit.row == 8
        params = dict(hit.params)
        assert params["lam"] == pytest.approx(0.3, abs=1e-12)
        assert params["N"] == 2

    def test_fractional_atom_matches_row9(self):
        hit = lookup("1/(s^0.5-0.2)")
        assert hit.row == 9
        params = dict(hit.params)
        assert params["alpha"] == pytest.approx(0.5)
        assert params["beta"] == pytest.approx(0.5)
        assert params["lam"] == pytest.approx(0.2)

    def test_pure_power_matches_row5(self):
        hit = lookup("1/s^1.5")
        assert hit.row == 5
        assert dict(hit.params)["alpha"] == pytest.approx(0.5)

    def test_linear_base_power_matches_row6(self):
        hit = lookup("1/(1-0.5+0.5*s)^1.5")
        assert hit.row == 6
        params = dict(hit.params)
        assert params["gamma"] == pytest.approx(0.5)
        assert params["alpha"] == pytest.approx(0.5)

    def test_weighted_ml_matches_row10(self):
        hit = lookup("0.5*s^-0.5*(1-s)/(s^0.5-0.3)^2")
        assert hit.row == 10
        params = dict(hit.params)
        assert params["alpha"] == pytest.approx(0.5)
        assert params["lam"] == pytest.approx(0.3)
