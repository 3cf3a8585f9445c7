"""Estimator tests: frozen example values, invariants, and persistence.

Expected numbers are either computed in closed form inside the test or
frozen from the definitions (logsumexp, log-softmax) evaluated by hand.
"""

import math

import numpy as np
import pytest

from oodseg.estimators import (
    HEAD_SCORERS,
    SCORERS,
    all_score_maps,
    combined_map,
    entropy_map,
    jem_map,
    max_logit_map,
    msp_map,
    save_score_map,
    score_map,
    tae_log_prob_map,
    tore_residual_map,
)
from oodseg.head import HeadConfig, head_init
from oodseg.tensorio import read_tensor


def px(values):
    """One pixel's logits as a [K, 1, 1] map."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1, 1)


def at(score_map_values) -> float:
    return float(score_map_values[0, 0])


class TestFrozenValues:
    def test_jem_small(self):
        expected = -math.log(math.e + math.e**2 + math.e**3)
        assert at(jem_map(px([1.0, 2.0, 3.0]))) == pytest.approx(expected, abs=1e-14)
        assert at(jem_map(px([1.0, 2.0, 3.0]))) == pytest.approx(-3.4076059644443806, abs=1e-14)

    def test_tae_both_channels(self):
        assert at(tae_log_prob_map(px([1.0, 3.0]))) == pytest.approx(-0.1269280110429727, abs=1e-15)
        # channel 0's log-prob is channel 1's with the channels swapped
        assert at(tae_log_prob_map(px([3.0, 1.0]))) == pytest.approx(-2.1269280110429727, abs=1e-15)
        # the two channel log-probs always exponentiate to 1
        p0 = math.exp(at(tae_log_prob_map(px([3.0, 1.0]))))
        p1 = math.exp(at(tae_log_prob_map(px([1.0, 3.0]))))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-15)

    def test_tore_is_head1_plus_jem(self):
        v = at(tore_residual_map(px([1.0, 3.0]), jem_map(px([1.0, 2.0, 3.0]))))
        assert v == pytest.approx(3.0 + at(jem_map(px([1.0, 2.0, 3.0]))), abs=1e-15)
        assert v == pytest.approx(-0.4076059644443806, abs=1e-14)

    def test_combined_weighting(self):
        v = at(combined_map(px([1.0, 3.0]), jem_map(px([1.0, 2.0, 3.0])), lam=0.5))
        assert v == pytest.approx(-0.330730993265163, abs=1e-14)
        # all-zero logits collapse to -1.5 log 2
        assert at(combined_map(px([0.0, 0.0]), jem_map(px([0.0, 0.0])), 0.5)) == pytest.approx(
            -1.5 * math.log(2.0), abs=1e-15
        )

    def test_baselines(self):
        b = px([1.0, 2.0])
        assert at(msp_map(b)) == pytest.approx(-1.0 / (1.0 + math.exp(-1.0)), abs=1e-15)
        assert at(max_logit_map(b)) == -2.0
        u = px([0.0, 0.0, 0.0, 0.0])
        assert at(entropy_map(u)) == pytest.approx(math.log(4.0), abs=1e-15)
        assert at(msp_map(u)) == -0.25


class TestInvariants:
    def test_jem_shift_property(self):
        # adding a constant to every logit subtracts it from the score
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            logits = rng.standard_normal(k) * 10.0
            c = float(rng.standard_normal() * 50.0)
            assert at(jem_map(px(logits + c))) == pytest.approx(at(jem_map(px(logits))) - c, abs=1e-9)

    def test_jem_overflow_safe(self):
        assert np.isfinite(at(jem_map(px([700.0, 700.0]))))
        assert np.isfinite(at(jem_map(px([-700.0, -700.0]))))
        assert at(jem_map(px([700.0, 0.0]))) == pytest.approx(-700.0, abs=1e-9)
        assert at(jem_map(px([-700.0, -700.0]))) == pytest.approx(700.0 - math.log(2.0), abs=1e-9)

    def test_msp_entropy_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = rng.standard_normal((5, 4, 4)) * 5.0
            msp = msp_map(logits)
            ent = entropy_map(logits)
            assert np.all(msp <= -1.0 / 5.0 + 1e-12) and np.all(msp >= -1.0)
            assert np.all(ent >= 0.0) and np.all(ent <= math.log(5.0) + 1e-12)

    def test_max_logit(self):
        seg = np.array([[[1.0]], [[5.0]], [[-2.0]]])
        assert max_logit_map(seg)[0, 0] == -5.0


class TestValidation:
    def test_head_logits_need_two_channels(self):
        with pytest.raises(ValueError):
            tae_log_prob_map(np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            tore_residual_map(np.zeros((3, 2, 2)), np.zeros((2, 2)))

    def test_score_map_unknown_scorer(self):
        with pytest.raises(ValueError):
            score_map(None, None, np.zeros((3, 2, 2)), 0.5, "nope")

    def test_head_scorer_without_head(self):
        with pytest.raises(ValueError):
            score_map(None, None, np.zeros((3, 2, 2)), 0.5, "combined")


class TestWithHead:
    def _setup(self):
        rng = np.random.default_rng(0)
        head = head_init(HeadConfig(feature_dim=4, blocks=1, hidden=6), seed=5)
        feats = rng.standard_normal((4, 6, 6))
        seg = rng.standard_normal((3, 6, 6))
        return head, feats, seg

    def test_all_score_maps_keys(self):
        # in SCORERS order, which evaluate and eval.csv keep
        head, feats, seg = self._setup()
        assert list(all_score_maps(head, feats, seg, 0.5)) == list(SCORERS)
        headless = all_score_maps(None, feats, seg, 0.5)
        assert list(headless) == [s for s in SCORERS if s not in HEAD_SCORERS]

    def test_all_score_maps_matches_score_map(self):
        head, feats, seg = self._setup()
        maps = all_score_maps(head, feats, seg, lam=0.3)
        for scorer in SCORERS:
            single = score_map(head, feats, seg, lam=0.3, scorer=scorer)
            assert single.shape == (6, 6)
            np.testing.assert_array_equal(single, maps[scorer])  # one formula per scorer

    def test_eval_forward_is_pure(self):
        head, feats, seg = self._setup()
        before = [blk.run_mean.copy() for blk in head.blocks]
        all_score_maps(head, feats, seg, 0.5)
        for blk, rm in zip(head.blocks, before):
            np.testing.assert_array_equal(blk.run_mean, rm)

    def test_save_load_round_trip(self, tmp_path):
        head, feats, seg = self._setup()
        values = score_map(head, feats, seg, lam=0.25, scorer="tore")
        save_score_map(tmp_path / "map.tnsr", values, "tore", 0.25)
        np.testing.assert_array_equal(read_tensor(tmp_path / "map.tnsr"), values)
        assert (tmp_path / "map.tnsr.txt").read_text() == "scorer=tore\nlambda=0.25\n"
