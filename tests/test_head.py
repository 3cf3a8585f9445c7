"""Head tests: shapes, batchnorm statistics, gradients, persistence.

The gradient check compares the handwritten backward pass against central
finite differences.  Instances whose pre-ReLU activations sit within a
small band of zero are resampled: differencing across the kink measures
the wrong one-sided slope, which says nothing about the backward pass.
"""

import copy

import numpy as np
import pytest

from oodseg.head import (
    HeadConfig,
    commit_batch_stats,
    HeadShapeError,
    head_backward,
    head_forward,
    head_init,
    load_head,
    read_head_manifest,
    save_head,
)
from oodseg.tensorio import ArtifactError, read_tensor, write_tensor

FD_EPS = 1e-5
KINK_CLEARANCE = 2e-3


def clear_instance(seed, cfg, shape=(5, 4), clearance=KINK_CLEARANCE):
    """Params, features, target with every pre-ReLU activation off the kink."""
    for sub in range(64):
        rng = np.random.default_rng([seed, sub])
        params = head_init(cfg, seed=int(rng.integers(2**31)))
        x = rng.standard_normal((cfg.feature_dim,) + shape)
        tgt = rng.standard_normal((2,) + shape)
        _, cache = head_forward(params, x, mode="train")
        if min(float(np.min(np.abs(bc.y))) for bc in cache.blocks) > clearance:
            return params, x, tgt
    raise AssertionError("no kink-free instance in 64 draws")


def fd_loss(params, x, tgt):
    logits, _ = head_forward(params, x, mode="train")
    return 0.5 * float(np.mean((logits - tgt) ** 2))


def max_grad_error(params, x, tgt):
    """Worst relative disagreement between backward and central differences.

    The denominator floor matters: the conv bias feeding a batchnorm has a
    structurally zero gradient (a uniform shift cancels in normalization),
    so its comparison is effectively absolute at the floor scale.
    """
    logits, cache = head_forward(params, x, mode="train")
    grads = head_backward(params, cache, (logits - tgt) / logits.size)
    worst = 0.0
    for name, arr in params.trainable():
        ga = grads[name].reshape(-1)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            old = float(flat[i])
            flat[i] = old + FD_EPS
            lp = fd_loss(params, x, tgt)
            flat[i] = old - FD_EPS
            lm = fd_loss(params, x, tgt)
            flat[i] = old
            num = (lp - lm) / (2.0 * FD_EPS)
            den = max(abs(ga[i]), abs(num), 1e-3)
            worst = max(worst, abs(ga[i] - num) / den)
    return worst


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeadConfig(feature_dim=0)
        with pytest.raises(ValueError):
            HeadConfig(feature_dim=4, kernel_size=2)
        with pytest.raises(ValueError):
            HeadConfig(feature_dim=4, bn_momentum=1.0)
        with pytest.raises(ValueError):
            HeadConfig(feature_dim=4, blocks=0)

    def test_parameter_count(self):
        for cfg in (
            HeadConfig(feature_dim=16),
            HeadConfig(feature_dim=16, use_batchnorm=False),
            HeadConfig(feature_dim=7, blocks=2, hidden=5, kernel_size=3),
        ):
            # conv w + b per block, plus gamma, beta, running mean and var with BN
            n, c_in = 0, cfg.feature_dim
            for _ in range(cfg.blocks):
                n += cfg.hidden * c_in * cfg.kernel_size**2 + cfg.hidden
                n += 4 * cfg.hidden if cfg.use_batchnorm else 0
                c_in = cfg.hidden
            n += 2 * cfg.hidden + 2
            params = head_init(cfg, seed=0)
            assert params.n_parameters() == n

    def test_default_desk_head_size(self):
        # 3 blocks of 32 channels over 16 features, 1x1 kernels:
        # (16*32+32 + 4*32) + 2*(32*32+32 + 4*32) + (2*32+2) = 3106
        assert head_init(HeadConfig(feature_dim=16), seed=0).n_parameters() == 3106


class TestInit:
    def test_deterministic(self):
        a = head_init(HeadConfig(feature_dim=4), seed=3)
        b = head_init(HeadConfig(feature_dim=4), seed=3)
        for (na, pa), (nb, pb) in zip(a.trainable(), b.trainable()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)

    def test_he_scale(self):
        cfg = HeadConfig(feature_dim=256, blocks=1, hidden=512)
        params = head_init(cfg, seed=0)
        std = params.blocks[0].w.std()
        assert std == pytest.approx(np.sqrt(2.0 / 256.0), rel=0.05)

    def test_neutral_bn_and_bias(self):
        params = head_init(HeadConfig(feature_dim=4), seed=0)
        for blk in params.blocks:
            np.testing.assert_array_equal(blk.b, 0.0)
            np.testing.assert_array_equal(blk.gamma, 1.0)
            np.testing.assert_array_equal(blk.beta, 0.0)
            np.testing.assert_array_equal(blk.run_mean, 0.0)
            np.testing.assert_array_equal(blk.run_var, 1.0)


class TestForward:
    def test_output_shape(self):
        params = head_init(HeadConfig(feature_dim=6), seed=0)
        x = np.random.default_rng(0).standard_normal((6, 9, 7))
        logits, cache = head_forward(params, x, mode="eval")
        assert logits.shape == (2, 9, 7)
        assert cache is None
        logits, cache = head_forward(params, x, mode="train")
        assert logits.shape == (2, 9, 7)
        assert cache is not None

    def test_shape_mismatch(self):
        params = head_init(HeadConfig(feature_dim=6), seed=0)
        with pytest.raises(HeadShapeError):
            head_forward(params, np.zeros((5, 4, 4)))

    def test_bad_mode(self):
        params = head_init(HeadConfig(feature_dim=4), seed=0)
        with pytest.raises(ValueError):
            head_forward(params, np.zeros((4, 3, 3)), mode="test")

    def test_train_batch_stats_match_numpy(self):
        cfg = HeadConfig(feature_dim=4, blocks=1, hidden=3)
        params = head_init(cfg, seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 8, 8))
        w2 = params.blocks[0].w[:, :, 0, 0]
        z = np.tensordot(w2, x, axes=1) + params.blocks[0].b[:, None, None]
        mu = z.mean(axis=(1, 2))
        var = z.var(axis=(1, 2))
        expected = np.maximum((z - mu[:, None, None]) / np.sqrt(var + cfg.bn_epsilon)[:, None, None], 0.0)
        logits, cache = head_forward(params, x, mode="train")
        np.testing.assert_allclose(np.maximum(cache.blocks[0].y, 0.0), expected, atol=1e-10)

    def test_running_stats_update_rule(self):
        cfg = HeadConfig(feature_dim=4, blocks=1, hidden=3, bn_momentum=0.9)
        params = head_init(cfg, seed=1)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 8, 8))
        w2 = params.blocks[0].w[:, :, 0, 0]
        z = np.tensordot(w2, x, axes=1) + params.blocks[0].b[:, None, None]
        mu, var = z.mean(axis=(1, 2)), z.var(axis=(1, 2))
        _, cache = head_forward(params, x, mode="train")
        commit_batch_stats(params, [cache])
        np.testing.assert_allclose(params.blocks[0].run_mean, 0.1 * mu, atol=1e-10)
        np.testing.assert_allclose(params.blocks[0].run_var, 0.9 + 0.1 * var, atol=1e-10)

    def test_eval_uses_running_stats(self):
        cfg = HeadConfig(feature_dim=4, blocks=1, hidden=3)
        params = head_init(cfg, seed=1)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6, 6))
        before, _ = head_forward(params, x, mode="eval")
        _, cache = head_forward(params, rng.standard_normal((4, 6, 6)), mode="train")
        commit_batch_stats(params, [cache])
        after, _ = head_forward(params, x, mode="eval")
        assert np.max(np.abs(after - before)) > 0.0  # stats moved

    def test_train_mode_leaves_running_stats(self):
        params = head_init(HeadConfig(feature_dim=4, blocks=2, hidden=3), seed=2)
        x = np.random.default_rng(8).standard_normal((4, 5, 5))
        head_forward(params, x, mode="train")
        for blk, blk0 in zip(params.blocks, head_init(params.config, seed=2).blocks):
            np.testing.assert_array_equal(blk.run_mean, blk0.run_mean)
            np.testing.assert_array_equal(blk.run_var, blk0.run_var)

    def test_commit_follows_cache_order_bit_for_bit(self):
        # the in-place rule a train-mode forward once applied, slot after slot
        params = head_init(HeadConfig(feature_dim=4, blocks=2, hidden=3, bn_momentum=0.8), seed=3)
        rng = np.random.default_rng(9)
        caches = [head_forward(params, rng.standard_normal((4, 5, 6)).astype(np.float32), mode="train")[1]
                  for _ in range(4)]
        expect = [(blk.run_mean.copy(), blk.run_var.copy()) for blk in params.blocks]
        for cache in caches:
            for (rm, rv), bc in zip(expect, cache.blocks):
                rm[:] = 0.8 * rm + (1.0 - 0.8) * bc.mean
                rv[:] = 0.8 * rv + (1.0 - 0.8) * bc.var
        commit_batch_stats(params, caches)
        for blk, (rm, rv) in zip(params.blocks, expect):
            np.testing.assert_array_equal(blk.run_mean, rm)
            np.testing.assert_array_equal(blk.run_var, rv)
        # each cache moves the statistics differently, so the order is visible
        for blk in params.blocks:
            blk.run_mean[:], blk.run_var[:] = 0.0, 1.0
        commit_batch_stats(params, caches[::-1])
        assert not np.array_equal(params.blocks[0].run_mean, expect[0][0])

    def test_eval_mode_is_pure(self):
        params = head_init(HeadConfig(feature_dim=4), seed=2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5, 5))
        stats = [(b.run_mean.copy(), b.run_var.copy()) for b in params.blocks]
        head_forward(params, x, mode="eval")
        for blk, (rm, rv) in zip(params.blocks, stats):
            np.testing.assert_array_equal(blk.run_mean, rm)
            np.testing.assert_array_equal(blk.run_var, rv)

    def test_kernel3_matches_explicit_convolution(self):
        cfg = HeadConfig(feature_dim=2, blocks=1, hidden=2, kernel_size=3, use_batchnorm=False)
        params = head_init(cfg, seed=3)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5, 6))
        logits, _ = head_forward(params, x, mode="eval")
        # brute-force zero-padded correlation for one block plus projection
        w, b = params.blocks[0].w, params.blocks[0].b
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        z = np.zeros((2, 5, 6))
        for o in range(2):
            for i in range(5):
                for j in range(6):
                    z[o, i, j] = np.sum(w[o] * xp[:, i : i + 3, j : j + 3]) + b[o]
        a = np.maximum(z, 0.0)
        expected = np.tensordot(params.out_w, a, axes=1) + params.out_b[:, None, None]
        np.testing.assert_allclose(logits, expected, atol=1e-12)


class TestBackward:
    def test_gradcheck_default_blocks(self):
        cfg = HeadConfig(feature_dim=4, blocks=2, hidden=5)
        worst = 0.0
        for seed in range(4):
            params, x, tgt = clear_instance(seed, cfg)
            worst = max(worst, max_grad_error(params, x, tgt))
        assert worst < 1e-6, f"gradient mismatch {worst:.3e}"

    def test_gradcheck_no_batchnorm(self):
        cfg = HeadConfig(feature_dim=3, blocks=2, hidden=4, use_batchnorm=False)
        params, x, tgt = clear_instance(0, cfg)
        assert max_grad_error(params, x, tgt) < 1e-6

    def test_gradcheck_kernel3(self):
        cfg = HeadConfig(feature_dim=3, blocks=1, hidden=4, kernel_size=3)
        params, x, tgt = clear_instance(1, cfg)
        assert max_grad_error(params, x, tgt) < 1e-6

    def test_cache_ownership_enforced(self):
        cfg = HeadConfig(feature_dim=4)
        a = head_init(cfg, seed=0)
        b = head_init(cfg, seed=1)
        x = np.random.default_rng(0).standard_normal((4, 3, 3))
        logits, cache = head_forward(a, x, mode="train")
        with pytest.raises(ValueError):
            head_backward(b, cache, np.zeros_like(logits))

    def test_grad_shape_checked(self):
        params = head_init(HeadConfig(feature_dim=4), seed=0)
        x = np.random.default_rng(0).standard_normal((4, 3, 3))
        _, cache = head_forward(params, x, mode="train")
        with pytest.raises(ValueError):
            head_backward(params, cache, np.zeros((2, 4, 4)))

    @pytest.mark.parametrize(
        "cfg",
        [
            HeadConfig(feature_dim=16),
            HeadConfig(feature_dim=16, use_batchnorm=False),
            HeadConfig(feature_dim=3, blocks=2, hidden=8, kernel_size=3),
        ],
        ids=["desk", "no-batchnorm", "kernel3"],
    )
    def test_float32_training_matches_float64(self, cfg):
        # training feeds float32 features; the float64 path is the one the
        # finite-difference checks verify.  Pre-ReLU activations are kept
        # 1e-4 off the kink, far beyond float32 rounding, so both
        # precisions gate the same units.
        p64, x, tgt = clear_instance(3, cfg, shape=(8, 8), clearance=1e-4)
        p32 = copy.deepcopy(p64)
        l64, c64 = head_forward(p64, x, mode="train")
        l32, c32 = head_forward(p32, x.astype(np.float32), mode="train")
        commit_batch_stats(p64, [c64])
        commit_batch_stats(p32, [c32])
        assert l32.dtype == np.float32
        np.testing.assert_allclose(l32, l64, rtol=1e-4, atol=1e-4 * np.abs(l64).max())
        g = (l64 - tgt) / l64.size
        g64 = head_backward(p64, c64, g)
        g32 = head_backward(p32, c32, g)
        again = head_backward(p32, c32, g)
        assert set(g32) == set(g64)
        for name, ref in g64.items():
            assert g32[name].dtype == np.float64, name
            np.testing.assert_allclose(g32[name], ref, rtol=1e-4, atol=1e-4 * np.abs(ref).max(), err_msg=name)
            np.testing.assert_array_equal(again[name], g32[name], err_msg=name)
        for b32, b64 in zip(p32.blocks, p64.blocks):
            if b64.run_mean is not None:
                assert b32.run_mean.dtype == b32.run_var.dtype == np.float64
                np.testing.assert_allclose(b32.run_mean, b64.run_mean, rtol=1e-4, atol=1e-6)
                np.testing.assert_allclose(b32.run_var, b64.run_var, rtol=1e-4)

    def test_grads_cover_all_trainables(self):
        params = head_init(HeadConfig(feature_dim=4), seed=0)
        x = np.random.default_rng(1).standard_normal((4, 3, 3))
        logits, cache = head_forward(params, x, mode="train")
        grads = head_backward(params, cache, np.ones_like(logits))
        names = {name for name, _ in params.trainable()}
        assert set(grads) == names
        for name, arr in params.trainable():
            assert grads[name].shape == arr.shape


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cfg = HeadConfig(feature_dim=5, blocks=2, hidden=4, kernel_size=3)
        params = head_init(cfg, seed=9)
        rng = np.random.default_rng(10)
        _, cache = head_forward(params, rng.standard_normal((5, 6, 6)), mode="train")
        commit_batch_stats(params, [cache])  # move stats
        save_head(params, tmp_path / "ckpt", extra={"note": "hello"})
        back = load_head(tmp_path / "ckpt")
        assert back.config == cfg
        for (na, pa), (nb, pb) in zip(params.trainable(), back.trainable()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)
        for ba, bb in zip(params.blocks, back.blocks):
            np.testing.assert_array_equal(ba.run_mean, bb.run_mean)
            np.testing.assert_array_equal(ba.run_var, bb.run_var)
        manifest = read_head_manifest(tmp_path / "ckpt")
        assert manifest["note"] == "hello"
        assert (tmp_path / "ckpt" / "head.txt").read_text() == (
            "feature_dim=5\nblocks=2\nhidden=4\nkernel_size=3\nuse_batchnorm=1\n"
            "bn_momentum=0.9\nbn_epsilon=1e-05\nnote=hello\n"
        )

    def test_no_batchnorm_round_trip(self, tmp_path):
        cfg = HeadConfig(feature_dim=3, use_batchnorm=False)
        params = head_init(cfg, seed=1)
        save_head(params, tmp_path / "ckpt")
        back = load_head(tmp_path / "ckpt")
        assert back.config.use_batchnorm is False
        assert back.n_parameters() == params.n_parameters()

    def test_load_detects_missing_file(self, tmp_path):
        params = head_init(HeadConfig(feature_dim=4), seed=0)
        save_head(params, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "block1_w.tnsr").unlink()
        with pytest.raises(Exception):
            load_head(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("hidden=32\n", ""),
            lambda text: text.replace("use_batchnorm=1", "use_batchnorm=yes"),
            lambda text: text.replace("blocks=3", "blocks=0"),
        ],
        ids=["missing_key", "bad_bool", "invalid_value"],
    )
    def test_malformed_manifest_is_artifact_error(self, tmp_path, edit):
        save_head(head_init(HeadConfig(feature_dim=4), seed=0), tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "head.txt"
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(ArtifactError):
            load_head(tmp_path / "ckpt")

    def test_tensor_shape_mismatch_is_artifact_error(self, tmp_path):
        # same element count as the [2, 32] original, so only a shape check sees it
        save_head(head_init(HeadConfig(feature_dim=4), seed=0), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "out_w.tnsr"
        write_tensor(path, read_tensor(path).reshape(32, 2))
        with pytest.raises(ArtifactError):
            load_head(tmp_path / "ckpt")
