"""Loss tests: frozen small cases, finite-difference gradients, pooling.

The margin loss is piecewise linear, so finite differencing is exact away
from the hinge boundary; test instances keep the hinge argument strictly
on one side.
"""

import math

import numpy as np
import pytest

from oodseg.estimators import jem_map
from oodseg.losses import (
    DegeneratePartitionError,
    batch_loss_tae,
    batch_loss_tore,
    batch_total_loss,
    pooled_set_sizes,
)
from oodseg.refine import PixelPartition


def make_partition(ood, ignored=None):
    ood = np.asarray(ood, dtype=bool)
    ignored = np.zeros_like(ood) if ignored is None else np.asarray(ignored, dtype=bool)
    return PixelPartition(
        ood_mask=ood,
        id_mask=~(ood | ignored),
        ignored_mask=ignored,
        eta=0.0,
    )


def random_item(rng, shape=(3, 4), p_ignore=0.2):
    logits = rng.standard_normal((2,) + shape) * 2.0
    jem = rng.standard_normal(shape) * 3.0
    u = rng.uniform(size=shape)
    ood = u < 0.4
    ignored = (u >= 0.4) & (u < 0.4 + p_ignore)
    if not ood.any():
        ood.reshape(-1)[0] = True
        ignored.reshape(-1)[0] = False
    if (ood | ignored).all():
        ignored.reshape(-1)[-1] = False
        ood.reshape(-1)[-1] = False
    return logits, jem, make_partition(ood, ignored)


class TestFrozenValues:
    def test_tae_two_uniform_pixels(self):
        # 1 anomaly + 1 normal pixel, all-zero logits: two -log(1/2) terms
        logits = np.zeros((2, 1, 2))
        part = make_partition([[True, False]])
        value, (grad,) = batch_loss_tae([(logits, None, part)])
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(grad[:, 0, 0], [0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(grad[:, 0, 1], [-0.5, 0.5], atol=1e-15)

    def test_tae_ignored_pixels_get_zero_grad(self):
        rng = np.random.default_rng(0)
        logits, jem, part = random_item(rng)
        value, (grad,) = batch_loss_tae([(logits, jem, part)])
        assert np.all(grad[:, part.ignored_mask] == 0.0)

    def test_tore_active_hinge(self):
        # zero logits and constant jem: arg = gamma, gradient is the set-size split
        logits = np.zeros((2, 2, 2))
        part = make_partition([[True, False], [False, False]])
        value, (grad,) = batch_loss_tore([(logits, jem_map(np.zeros((3, 2, 2))), part)], gamma=5.0)
        assert value == pytest.approx(5.0, abs=1e-12)
        assert grad[1][part.ood_mask][0] == pytest.approx(-1.0, abs=1e-15)
        np.testing.assert_allclose(grad[1][part.id_mask], 1.0 / 3.0, atol=1e-15)
        assert np.all(grad[0] == 0.0)

    def test_tore_inactive_hinge(self):
        logits = np.zeros((2, 1, 2))
        logits[1, 0, 0] = 100.0  # anomaly side residual dominates
        part = make_partition([[True, False]])
        value, (grad,) = batch_loss_tore([(logits, jem_map(np.zeros((3, 1, 2))), part)], gamma=5.0)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_tore_zero_argument_subgradient(self):
        # mean_id(s) - mean_ood(s) + gamma lands exactly on 0: loss and grad both 0
        logits = np.zeros((2, 1, 2))
        logits[1, 0, 0] = 4.0  # ood pixel
        part = make_partition([[True, False]])
        value, (grad,) = batch_loss_tore([(logits, np.zeros((1, 2)), part)], gamma=4.0)
        assert value == 0.0
        assert np.all(grad == 0.0)


class TestGradientsAgainstFiniteDifferences:
    def fd_grad(self, fn, logits, eps=1e-6):
        g = np.zeros_like(logits)
        flat = logits.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            old = float(flat[i])
            flat[i] = old + eps
            lp = fn()
            flat[i] = old - eps
            lm = fn()
            flat[i] = old
            gf[i] = (lp - lm) / (2.0 * eps)
        return g

    def test_tae_grad(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            logits, jem, part = random_item(rng)
            _, (grad,) = batch_loss_tae([(logits, jem, part)])
            fd = self.fd_grad(lambda: batch_loss_tae([(logits, jem, part)])[0], logits)
            np.testing.assert_allclose(grad, fd, atol=1e-8)

    def test_tore_grad_both_margins(self):
        rng = np.random.default_rng(22)
        for margin in ("dynamic", "static"):
            for _ in range(5):
                logits, jem, part = random_item(rng)
                s = logits[1] + jem if margin == "dynamic" else logits[1]
                raw = s[part.id_mask].mean() - s[part.ood_mask].mean()
                # pick gammas that land the hinge argument at exactly -5 and +5,
                # safely away from the kink so central differences are exact
                for offset in (-5.0, 5.0):
                    gamma = offset - raw
                    item = (logits, jem, part)
                    v, grads = batch_loss_tore([item], gamma, margin)
                    assert v == pytest.approx(max(offset, 0.0), abs=1e-9)
                    fd = self.fd_grad(lambda: batch_loss_tore([item], gamma, margin)[0], logits)
                    np.testing.assert_allclose(grads[0], fd, atol=1e-8)

    def test_total_grad_weighted(self):
        rng = np.random.default_rng(23)
        logits, jem, part = random_item(rng)
        item = (logits, jem, part)
        total, l_a, l_o, grads = batch_total_loss([item], gamma=20.0, w_a=0.7, w_o=1.3)
        assert total == pytest.approx(0.7 * l_a + 1.3 * l_o, abs=1e-12)
        fd = self.fd_grad(lambda: batch_total_loss([item], 20.0, 0.7, 1.3)[0], logits)
        np.testing.assert_allclose(grads[0], fd, atol=1e-7)


    @pytest.mark.parametrize("margin", ["dynamic", "static"])
    def test_total_grad_over_three_images(self, margin):
        rng = np.random.default_rng(24)
        items = [random_item(rng) for _ in range(3)] + [random_item(rng, shape=(5, 2))]  # one more shape
        s = [logits[1] + jem if margin == "dynamic" else logits[1] for logits, jem, _ in items]
        s_id = np.concatenate([si[p.id_mask] for si, (_, _, p) in zip(s, items)])
        s_ood = np.concatenate([si[p.ood_mask] for si, (_, _, p) in zip(s, items)])
        for offset in (-5.0, 5.0):  # the pooled hinge argument, away from the kink
            gamma = offset - (s_id.mean() - s_ood.mean())
            total, l_a, l_o, grads = batch_total_loss(items, gamma, 0.7, 1.3, margin)
            assert l_o == pytest.approx(max(offset, 0.0), abs=1e-9)
            assert [g.shape for g in grads] == [(2, 3, 4)] * 3 + [(2, 5, 2)]
            for b, (logits, _, _) in enumerate(items):
                fd = self.fd_grad(lambda: batch_total_loss(items, gamma, 0.7, 1.3, margin)[0], logits)
                np.testing.assert_allclose(grads[b], fd, atol=1e-7)


def stacked_reference(items, gamma, w_a, w_o, margin):
    """The loss over one-shape slots stacked into [B, 2, H, W] arrays, as the
    package once computed it: (l_a, l_o, total, grads_a, grads_o, grads)."""
    n_ood, n_id = pooled_set_sizes([p for _, _, p in items])
    logits = np.stack([logits for logits, _, _ in items])
    ood = np.stack([part.ood_mask for _, _, part in items])
    idm = np.stack([part.id_mask for _, _, part in items])
    jem = np.stack([jem for _, jem, _ in items])
    m = np.max(logits, axis=1, keepdims=True)
    lp = logits - m - np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True))
    l_a = float(sum(-lp[b, 1][ood[b]].sum() / n_ood - lp[b, 0][idm[b]].sum() / n_id for b in range(len(logits))))
    d = np.exp(lp) - np.stack([idm, ood], axis=1)
    grads_a = np.divide(d, np.where(ood, n_ood, n_id)[:, None], out=np.zeros_like(d), where=(ood | idm)[:, None])
    s = logits[:, 1] + jem if margin == "dynamic" else logits[:, 1]
    mean_id = sum(s[b][idm[b]].sum() / n_id for b in range(len(logits)))
    mean_ood = sum(s[b][ood[b]].sum() / n_ood for b in range(len(logits)))
    arg = mean_id - mean_ood + gamma
    grads_o = np.zeros_like(logits)
    if arg > 0.0:
        grads_o[:, 1] = np.where(idm, 1.0 / n_id, np.where(ood, -1.0 / n_ood, 0.0))
    l_o = float(max(arg, 0.0))
    return l_a, l_o, w_a * l_a + w_o * l_o, grads_a, grads_o, w_a * grads_a + w_o * grads_o


class TestAgainstStackedReference:
    @pytest.mark.parametrize("margin", ["dynamic", "static"])
    def test_slot_by_slot_equals_the_stack_byte_for_byte(self, margin):
        rng = np.random.default_rng(51)
        hinges = set()
        for n_slots in range(1, 9):
            for trial in range(6):
                shape = tuple(int(n) for n in rng.integers(2, 9, size=2))
                p_ignore = 0.0 if trial == 0 else float(rng.uniform(0.0, 0.5))
                items = [random_item(rng, shape, p_ignore) for _ in range(n_slots)]
                w_a, w_o = (1.0, 1.0) if trial == 1 else tuple(float(w) for w in rng.uniform(0.1, 3.0, size=2))
                # a gamma that puts the pooled hinge argument 2 either side of the kink
                s = [logits[1] + jem if margin == "dynamic" else logits[1] for logits, jem, _ in items]
                s_id = np.concatenate([si[p.id_mask] for si, (_, _, p) in zip(s, items)])
                s_ood = np.concatenate([si[p.ood_mask] for si, (_, _, p) in zip(s, items)])
                gamma = (2.0 if trial % 2 else -2.0) - (s_id.mean() - s_ood.mean())
                want = stacked_reference(items, gamma, w_a, w_o, margin)
                hinges.add(want[1] > 0.0)
                l_a, grads_a = batch_loss_tae(items)
                l_o, grads_o = batch_loss_tore(items, gamma, margin)
                total, l_a2, l_o2, grads = batch_total_loss(items, gamma, w_a, w_o, margin)
                assert (l_a, l_o, total) == want[:3] and (l_a2, l_o2) == (l_a, l_o)
                for got, stacked in zip((grads_a, grads_o, grads), want[3:]):
                    assert len(got) == n_slots
                    for g, ref in zip(got, stacked):
                        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()
        assert hinges == {True, False}


class TestMarginEquivalence:
    def test_dynamic_equals_shifted_static(self):
        # folding the jem means into the margin must not change the loss
        rng = np.random.default_rng(31)
        for _ in range(20):
            items = [random_item(rng) for _ in range(int(rng.integers(1, 4)))]
            gamma = float(rng.uniform(0.0, 10.0))
            v_dyn, g_dyn = batch_loss_tore(items, gamma)
            n_ood = sum(int(p.ood_mask.sum()) for _, _, p in items)
            n_id = sum(int(p.id_mask.sum()) for _, _, p in items)
            mean_id_jem = sum(j[p.id_mask].sum() for _, j, p in items) / n_id
            mean_ood_jem = sum(j[p.ood_mask].sum() for _, j, p in items) / n_ood
            gamma_hat = gamma + mean_id_jem - mean_ood_jem
            v_sta, g_sta = batch_loss_tore(items, gamma_hat, margin="static")
            assert v_dyn == pytest.approx(v_sta, abs=1e-9)
            if v_dyn > 1e-9:  # away from the hinge boundary the grads agree too
                for gd, gs in zip(g_dyn, g_sta):
                    np.testing.assert_array_equal(gd, gs)


class TestBatchPooling:
    def test_pooled_means_across_images(self):
        # two images must pool into per-set means over the union of pixels
        rng = np.random.default_rng(41)
        items = [random_item(rng), random_item(rng)]
        v, _ = batch_loss_tae(items)
        lp = []
        for logits, _, part in items:
            m = logits.max(axis=0)
            lsm = logits - m - np.log(np.exp(logits - m).sum(axis=0))
            lp.append((lsm, part))
        ood_terms = np.concatenate([l[1][p.ood_mask] for l, p in lp])
        id_terms = np.concatenate([l[0][p.id_mask] for l, p in lp])
        assert v == pytest.approx(-ood_terms.mean() - id_terms.mean(), abs=1e-12)


class TestValidation:
    def test_empty_sets_rejected(self):
        logits = np.zeros((2, 2, 2))
        jem = np.zeros((2, 2))
        all_ood = make_partition(np.ones((2, 2), dtype=bool))
        with pytest.raises(DegeneratePartitionError):
            batch_loss_tae([(logits, jem, all_ood)])
        none_ood = make_partition(np.zeros((2, 2), dtype=bool))
        with pytest.raises(DegeneratePartitionError):
            batch_loss_tae([(logits, jem, none_ood)])
        with pytest.raises(DegeneratePartitionError):
            batch_loss_tore([(logits, jem, none_ood)], gamma=1.0)
        with pytest.raises(DegeneratePartitionError):
            pooled_set_sizes([all_ood, all_ood])
        # pooled: one image's empty set is filled by another's
        assert pooled_set_sizes([all_ood, none_ood]) == (4, 4)

    def test_bad_margin_mode(self):
        logits = np.zeros((2, 1, 2))
        part = make_partition([[True, False]])
        with pytest.raises(ValueError):
            batch_loss_tore([(logits, np.zeros((1, 2)), part)], gamma=1.0, margin="other")
