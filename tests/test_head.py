"""Head tests: shapes, batchnorm statistics, gradients, persistence.

The gradient check compares the handwritten backward pass against central
finite differences.  Instances whose pre-ReLU activations sit within a
small band of zero are resampled: differencing across the kink measures
the wrong one-sided slope, which says nothing about the backward pass.
"""

import copy
import tracemalloc

import numpy as np
import pytest

import oodseg.head
from oodseg.head import (
    BN_EPSILON,
    BN_MOMENTUM,
    BAND_HALOS,
    TILE_PIXELS,
    HeadConfig,
    commit_batch_stats,
    HeadShapeError,
    head_backward,
    head_forward,
    head_init,
    load_head,
    save_head,
)
from oodseg.tensorio import ArtifactError, read_tensor, write_tensor

FD_EPS = 1e-5
KINK_CLEARANCE = 2e-3


def pre_relu(params, x):
    """Every block's pre-ReLU activation [C, H, W] in a train-mode forward,
    by a reference written apart from the head: a zero-padded correlation
    tap by tap, then batchnorm with the map's own statistics."""
    k = params.config.kernel_size
    r = k // 2
    out = []
    for blk in params.blocks:
        h, w = x.shape[1:]
        xp = np.pad(x, ((0, 0), (r, r), (r, r)))
        taps = [(i, j) for i in range(k) for j in range(k)]
        z = sum(np.tensordot(blk.w[:, :, i, j], xp[:, i : i + h, j : j + w], axes=1) for i, j in taps)
        xhat = (z - z.mean(axis=(1, 2), keepdims=True)) / np.sqrt(z.var(axis=(1, 2), keepdims=True) + BN_EPSILON)
        out.append(xhat * blk.gamma[:, None, None] + blk.beta[:, None, None])
        x = np.maximum(out[-1], 0.0)
    return out


def clear_instance(seed, cfg, shape=(5, 4), clearance=KINK_CLEARANCE):
    """Params, features, target with every pre-ReLU activation off the kink."""
    for sub in range(64):
        rng = np.random.default_rng([seed, sub])
        params = head_init(cfg, seed=int(rng.integers(2**31)))
        x = rng.standard_normal((cfg.feature_dim,) + shape)
        tgt = rng.standard_normal((2,) + shape)
        if min(float(np.min(np.abs(y))) for y in pre_relu(params, x)) > clearance:
            return params, x, tgt
    raise AssertionError("no kink-free instance in 64 draws")


def fd_loss(params, x, tgt):
    logits, _ = head_forward(params, x, mode="train")
    return 0.5 * float(np.mean((logits - tgt) ** 2))


def max_grad_error(params, x, tgt):
    """Worst relative disagreement between backward and central differences.

    The denominator floor makes the comparison of near-zero gradients
    effectively absolute at the floor scale.
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
            HeadConfig(feature_dim=4, blocks=0)

    def test_parameter_count(self):
        for cfg in (
            HeadConfig(feature_dim=16),
            HeadConfig(feature_dim=7, blocks=2, hidden=5, kernel_size=3),
        ):
            # conv w per block, plus gamma, beta, running mean and var
            n, c_in = 0, cfg.feature_dim
            for _ in range(cfg.blocks):
                n += cfg.hidden * c_in * cfg.kernel_size**2 + 4 * cfg.hidden
                c_in = cfg.hidden
            n += 2 * cfg.hidden + 2
            params = head_init(cfg, seed=0)
            assert sum(arr.size for _, arr in params.arrays()) == n

    def test_default_desk_head_size(self):
        # 3 blocks of 32 channels over 16 features, 1x1 kernels:
        # (16*32 + 4*32) + 2*(32*32 + 4*32) + (2*32+2) = 3010
        assert sum(arr.size for _, arr in head_init(HeadConfig(feature_dim=16), seed=0).arrays()) == 3010


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
        np.testing.assert_array_equal(params.out_b, 0.0)
        for blk in params.blocks:
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
        z = np.tensordot(w2, x, axes=1)
        mu = z.mean(axis=(1, 2))
        var = z.var(axis=(1, 2))
        expected = np.maximum((z - mu[:, None, None]) / np.sqrt(var + BN_EPSILON)[:, None, None], 0.0)
        logits, cache = head_forward(params, x, mode="train")
        np.testing.assert_allclose(cache.blocks[0].mean, mu, atol=1e-10)
        np.testing.assert_allclose(cache.blocks[0].var, var, atol=1e-10)
        # block 0's ReLU output is not kept; it reaches the logits through the projection
        projected = np.tensordot(params.out_w, expected, axes=1) + params.out_b[:, None, None]
        np.testing.assert_allclose(logits, projected, atol=1e-10)

    def test_running_stats_update_rule(self):
        cfg = HeadConfig(feature_dim=4, blocks=1, hidden=3)
        params = head_init(cfg, seed=1)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 8, 8))
        w2 = params.blocks[0].w[:, :, 0, 0]
        z = np.tensordot(w2, x, axes=1)
        mu, var = z.mean(axis=(1, 2)), z.var(axis=(1, 2))
        _, cache = head_forward(params, x, mode="train")
        commit_batch_stats(params, [cache])
        np.testing.assert_allclose(params.blocks[0].run_mean, (1.0 - BN_MOMENTUM) * mu, atol=1e-10)
        np.testing.assert_allclose(params.blocks[0].run_var, BN_MOMENTUM + (1.0 - BN_MOMENTUM) * var, atol=1e-10)

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
        params = head_init(HeadConfig(feature_dim=4, blocks=2, hidden=3), seed=3)
        rng = np.random.default_rng(9)
        caches = [head_forward(params, rng.standard_normal((4, 5, 6)).astype(np.float32), mode="train")[1]
                  for _ in range(4)]
        expect = [(blk.run_mean.copy(), blk.run_var.copy()) for blk in params.blocks]
        for cache in caches:
            for (rm, rv), bc in zip(expect, cache.blocks):
                rm[:] = BN_MOMENTUM * rm + (1.0 - BN_MOMENTUM) * bc.mean
                rv[:] = BN_MOMENTUM * rv + (1.0 - BN_MOMENTUM) * bc.var
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
        cfg = HeadConfig(feature_dim=2, blocks=1, hidden=2, kernel_size=3)
        params = head_init(cfg, seed=3)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5, 6))
        logits, _ = head_forward(params, x, mode="eval")
        # brute-force zero-padded correlation for one block plus projection;
        # the fresh running statistics (mean 0, variance 1) make the eval
        # batchnorm a scale by 1 / sqrt(1 + BN_EPSILON)
        w = params.blocks[0].w
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        z = np.zeros((2, 5, 6))
        for o in range(2):
            for i in range(5):
                for j in range(6):
                    z[o, i, j] = np.sum(w[o] * xp[:, i : i + 3, j : j + 3])
        a = np.maximum(z / np.sqrt(1.0 + BN_EPSILON), 0.0)
        expected = np.tensordot(params.out_w, a, axes=1) + params.out_b[:, None, None]
        np.testing.assert_allclose(logits, expected, atol=1e-12)


def trained_like(cfg, seed):
    """Parameters whose running statistics, gamma, beta and output bias all
    differ from their fresh values, so that folding each of them shows."""
    params = head_init(cfg, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for blk in params.blocks:
        blk.run_mean[:] = 0.3 * rng.standard_normal(cfg.hidden)
        blk.run_var[:] = rng.uniform(0.5, 2.0, cfg.hidden)
        blk.gamma[:] = rng.uniform(0.5, 1.5, cfg.hidden)
        blk.beta[:] = 0.1 * rng.standard_normal(cfg.hidden)
    params.out_b[:] = rng.standard_normal(2)
    return params


def full_map_eval(params, x):
    """Eval logits in one pass over the whole map: each block's batchnorm
    folded into its weights, one matmul over zero-padded columns, a bias
    and a ReLU, then the output projection."""
    k, dtype = params.config.kernel_size, x.dtype
    r = k // 2
    for blk in params.blocks:
        c, h, w = x.shape
        win = np.lib.stride_tricks.sliding_window_view(np.pad(x, ((0, 0), (r, r), (r, r))), (k, k), axis=(1, 2))
        cols = win.transpose(0, 3, 4, 1, 2).reshape(c * k * k, h * w)
        scale = blk.gamma / np.sqrt(blk.run_var + BN_EPSILON)
        a = (blk.w.reshape(blk.w.shape[0], -1) * scale[:, None]).astype(dtype) @ cols
        a += ((-blk.run_mean) * scale + blk.beta).astype(dtype)[:, None]
        x = np.maximum(a, 0.0).reshape(-1, h, w)
    logits = params.out_w.astype(dtype) @ x.reshape(x.shape[0], -1)
    logits += params.out_b.astype(dtype)[:, None]
    return logits.reshape(2, h, w)


class TestEvalBands:
    """Eval mode runs over haloed row bands; its logits are the full-map pass's."""

    @staticmethod
    def both(k, shape, seed=0, dtype=np.float64):
        cfg = HeadConfig(feature_dim=16, kernel_size=k)
        params = trained_like(cfg, seed)
        x = np.random.default_rng([seed, 2]).standard_normal((16,) + shape).astype(dtype)
        return head_forward(params, x, mode="eval")[0], full_map_eval(params, x)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("shape", [(64, 64), (32, 32)])
    def test_byte_equal_to_the_full_map(self, k, shape):
        for seed in range(3):
            bands, full = self.both(k, shape, seed)
            assert bands.tobytes() == full.tobytes()

    def test_kernel3_halo_across_several_bands(self, monkeypatch):
        halo = 3  # three 3x3 blocks
        assert 40 > max(TILE_PIXELS // 64, BAND_HALOS * halo)  # at least two bands at the defaults
        bands, full = self.both(3, (40, 64))
        assert bands.tobytes() == full.tobytes()
        # bands one halo tall: every band borrows its rows from both neighbours
        monkeypatch.setattr(oodseg.head, "TILE_PIXELS", 1)
        monkeypatch.setattr(oodseg.head, "BAND_HALOS", 1)
        bands, full = self.both(3, (40, 64))
        assert bands.tobytes() == full.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("shape", [(37, 53), (16, 600)], ids=["ragged", "wider_than_a_band"])
    def test_close_to_the_full_map_elsewhere(self, k, shape):
        # band widths that are not a multiple of 8 round on OpenBLAS's edge path
        bands, full = self.both(k, shape)
        assert np.max(np.abs(bands - full)) <= 1e-12 * np.max(np.abs(full))

    def test_float32_in_float32_out(self):
        bands, full = self.both(3, (40, 64), dtype=np.float32)
        assert bands.dtype == np.float32
        np.testing.assert_allclose(bands, full, rtol=0, atol=1e-5 * np.max(np.abs(full)))

    def test_kernel3_reuses_the_head_workspace(self):
        # a second eval forward of the same shape takes its im2col buffers
        # from the head's workspace, the same arrays the first one grew
        params = trained_like(HeadConfig(feature_dim=16, kernel_size=3), 0)
        x = np.random.default_rng(1).standard_normal((16, 40, 64))
        first = head_forward(params, x, mode="eval")[0]
        buffers = dict(params.workspace._flat)
        assert set(buffers) == {"pad", "cols"}
        second = head_forward(params, x, mode="eval")[0]
        assert all(params.workspace._flat[role] is buf for role, buf in buffers.items())
        assert second.tobytes() == first.tobytes()


class TestBackward:
    def test_gradcheck_default_blocks(self):
        cfg = HeadConfig(feature_dim=4, blocks=2, hidden=5)
        worst = 0.0
        for seed in range(4):
            params, x, tgt = clear_instance(seed, cfg)
            worst = max(worst, max_grad_error(params, x, tgt))
        assert worst < 1e-6, f"gradient mismatch {worst:.3e}"

    def test_gradcheck_kernel3(self):
        # two blocks, so the input gradient's col2im (_input_grad) is checked too
        cfg = HeadConfig(feature_dim=3, blocks=2, hidden=4, kernel_size=3)
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
            HeadConfig(feature_dim=3, blocks=2, hidden=8, kernel_size=3),
        ],
        ids=["desk", "kernel3"],
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
            assert b32.run_mean.dtype == b32.run_var.dtype == np.float64
            np.testing.assert_allclose(b32.run_mean, b64.run_mean, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(b32.run_var, b64.run_var, rtol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    def test_backward_leaves_the_cache_untouched(self, k, dtype):
        # the backward recomputes ReLU outputs into buffers of its own
        params = head_init(HeadConfig(feature_dim=5, blocks=3, hidden=6, kernel_size=k), seed=2)
        x = np.random.default_rng(3).standard_normal((5, 7, 9)).astype(dtype)
        logits, cache = head_forward(params, x, mode="train")
        g = np.random.default_rng(4).standard_normal(logits.shape)

        def snapshot():
            return [
                None if value is None else np.array(value).tobytes()
                for bc in cache.blocks
                for value in vars(bc).values()
            ]

        before = snapshot()
        first = head_backward(params, cache, g)
        second = head_backward(params, cache, g)
        assert snapshot() == before
        assert set(first) == set(second)
        for name, grad in first.items():
            assert grad.tobytes() == second[name].tobytes(), name

    def test_train_cache_keeps_one_array_per_block(self):
        # desk head on 64x64 float32 features: the cache holds the features
        # and one [hidden, H*W] array per block after the first, not block
        # 0's conv output nor the ReLU outputs
        cfg = HeadConfig(feature_dim=16)
        params = head_init(cfg, seed=0)
        h = w = 64
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            x = np.random.default_rng(0).standard_normal((cfg.feature_dim, h, w)).astype(np.float32)
            logits, cache = head_forward(params, x, mode="train")
            del logits, x
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert cache.blocks[0].x_in.shape == (cfg.feature_dim, h, w)
        bound = (cfg.feature_dim + (cfg.blocks - 1) * cfg.hidden) * h * w * 4 + 64 * 1024
        assert retained <= bound, f"train cache retains {retained} bytes, bound {bound}"
        assert not params.workspace._flat, "a 1x1 head takes no workspace memory"

    def test_shared_workspace_keeps_kernel3_gradients(self):
        # every call of a head shares its workspace: backwards of other
        # caches in between, one of another map shape, and a larger float64
        # eval forward between the train forwards and their backwards leave
        # a backward's bytes as a fresh head gives them, and no gradient is
        # workspace memory
        cfg = HeadConfig(feature_dim=4, blocks=3, hidden=6, kernel_size=3)
        params = head_init(cfg, seed=5)
        rng = np.random.default_rng(6)
        maps = [rng.standard_normal((4,) + hw).astype(np.float32) for hw in ((9, 11), (9, 11), (6, 13))]
        grads = [rng.standard_normal((2,) + x.shape[1:]) for x in maps]
        fresh = head_init(cfg, seed=5)
        expect = head_backward(fresh, head_forward(fresh, maps[0], mode="train")[1], grads[0])
        caches = [head_forward(params, x, "train")[1] for x in maps]
        head_forward(params, rng.standard_normal((4, 12, 15)), mode="eval")
        runs = [head_backward(params, cache, g) for cache, g in zip(caches, grads)]
        runs.append(head_backward(params, caches[0], grads[0]))
        ws = params.workspace
        assert ws._flat
        for got in (runs[0], runs[-1]):
            assert set(got) == set(expect)
            for name, grad in got.items():
                assert grad.tobytes() == expect[name].tobytes(), name
        for got in runs:
            for name, grad in got.items():
                assert not any(np.shares_memory(grad, buf) for buf in ws._flat.values()), name

    def test_grads_cover_all_trainables(self):
        params = head_init(HeadConfig(feature_dim=4), seed=0)
        x = np.random.default_rng(1).standard_normal((4, 3, 3))
        logits, cache = head_forward(params, x, mode="train")
        grads = head_backward(params, cache, np.ones_like(logits))
        names = {name for name, _ in params.trainable()}
        assert set(grads) == names
        for name, arr in params.trainable():
            assert grads[name].shape == arr.shape


DIGEST = "d" * 64  # the frozen model a test head is saved for
CONFIG_SHA = "c" * 64


def save(params, path, lam=0.5):
    save_head(params, path, DIGEST, lam, CONFIG_SHA)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cfg = HeadConfig(feature_dim=5, blocks=2, hidden=4, kernel_size=3)
        params = head_init(cfg, seed=9)
        rng = np.random.default_rng(10)
        _, cache = head_forward(params, rng.standard_normal((5, 6, 6)), mode="train")
        commit_batch_stats(params, [cache])  # move stats
        save(params, tmp_path / "ckpt", lam=0.25)
        back, lam = load_head(tmp_path / "ckpt", DIGEST)
        assert back.config == cfg
        assert lam == 0.25
        for (na, pa), (nb, pb) in zip(params.trainable(), back.trainable()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)
        for ba, bb in zip(params.blocks, back.blocks):
            np.testing.assert_array_equal(ba.run_mean, bb.run_mean)
            np.testing.assert_array_equal(ba.run_var, bb.run_var)
        assert (tmp_path / "ckpt" / "head.txt").read_text() == (
            f"feature_dim=5\nblocks=2\nhidden=4\nkernel_size=3\nfrozen_digest={DIGEST}\nlam=0.25\n"
            f"train_config={CONFIG_SHA}\n"
        )

    def test_conv_bias_format_loads(self, tmp_path):
        # heads written with a conv bias carry two more manifest lines and a
        # zero block*_b tensor per block; they load as the same model.  Their
        # bn_momentum line, unknown here, is ignored, and a head written
        # before lam was recorded has lam 0.5
        params = head_init(HeadConfig(feature_dim=4, blocks=2, hidden=3), seed=4)
        save(params, tmp_path / "new", lam=0.25)
        old = tmp_path / "old"
        save(params, old, lam=0.25)
        text = (old / "head.txt").read_text().replace("lam=0.25\n", "")
        (old / "head.txt").write_text(text + "use_batchnorm=1\nbn_epsilon=1e-05\nbn_momentum=0.9\n")
        for i in range(2):
            write_tensor(old / f"block{i}_b.tnsr", np.zeros(3))
        (a, lam_a), (b, lam_b) = load_head(tmp_path / "new", DIGEST), load_head(old, DIGEST)
        assert (lam_a, lam_b) == (0.25, 0.5)
        assert a.config == b.config
        assert [n for n, _ in a.arrays()] == [n for n, _ in b.arrays()]
        for (name, x), (_, y) in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y, err_msg=name)

    def test_checks_run_in_order(self, tmp_path):
        # a head failing every check names the first; mending it uncovers the next
        ckpt = tmp_path / "ckpt"
        save(head_init(HeadConfig(feature_dim=4), seed=0), ckpt)
        good, out_b, nan_b = (ckpt / "head.txt").read_text(), read_tensor(ckpt / "out_b.tnsr"), np.full(2, np.nan)
        bad_lam = good.replace("lam=0.5", "lam=nan")
        no_digest = bad_lam.replace(f"frozen_digest={DIGEST}\n", "")
        steps = [
            (no_digest.replace("hidden=32\n", "") + "use_batchnorm=0\n", nan_b, "has use_batchnorm=0"),
            (no_digest.replace("hidden=32\n", ""), nan_b, "malformed head manifest"),
            (no_digest, nan_b, "out.b in .* not finite"),
            (no_digest, out_b, "records no frozen_digest"),
            (bad_lam.replace(DIGEST, "e" * 64), out_b, "frozen model eeeeeeeeeeee, got dddddddddddd"),
            (bad_lam, out_b, "records lam=nan, not a finite number"),
        ]
        for text, b, match in steps:
            (ckpt / "head.txt").write_text(text)
            write_tensor(ckpt / "out_b.tnsr", b)
            with pytest.raises(ArtifactError, match=match):
                load_head(ckpt, DIGEST)
        (ckpt / "head.txt").write_text(good)
        assert load_head(ckpt, DIGEST)[1] == 0.5

    def test_huge_hidden_fails_before_allocating(self, tmp_path):
        # the manifest claims a 200000-channel block; its tensors hold 8 channels
        save(head_init(HeadConfig(feature_dim=4, blocks=1, hidden=8), seed=0), tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "head.txt"
        manifest.write_text(manifest.read_text().replace("hidden=8\n", "hidden=200000\n"))
        tracemalloc.start()
        try:
            with pytest.raises(ArtifactError):
                load_head(tmp_path / "ckpt", DIGEST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, f"load_head peaked at {peak / 1e6:.1f} MB"

    def test_load_detects_missing_file(self, tmp_path):
        params = head_init(HeadConfig(feature_dim=4), seed=0)
        save(params, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "block1_w.tnsr").unlink()
        with pytest.raises(Exception):
            load_head(tmp_path / "ckpt", DIGEST)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("hidden=32\n", ""),
            # no HeadConfig field is a bool any more; an int that does not parse
            lambda text: text.replace("blocks=3\n", "blocks=three\n"),
            lambda text: text.replace("blocks=3", "blocks=0"),
            # lines of a head with a conv bias, naming a model this head is not
            lambda text: text + "use_batchnorm=0\n",
            lambda text: text + "bn_epsilon=0.001\n",
        ],
        ids=["missing_key", "bad_bool", "invalid_value", "no_batchnorm", "bn_epsilon"],
    )
    def test_malformed_manifest_is_artifact_error(self, tmp_path, edit):
        save(head_init(HeadConfig(feature_dim=4), seed=0), tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "head.txt"
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(ArtifactError):
            load_head(tmp_path / "ckpt", DIGEST)

    def test_tensor_shape_mismatch_is_artifact_error(self, tmp_path):
        # same element count as the [2, 32] original, so only a shape check sees it
        save(head_init(HeadConfig(feature_dim=4), seed=0), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "out_w.tnsr"
        write_tensor(path, read_tensor(path).reshape(32, 2))
        with pytest.raises(ArtifactError):
            load_head(tmp_path / "ckpt", DIGEST)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("leaf", ["block0_w", "block1_run_var", "out_b"])
    def test_non_finite_tensor_is_artifact_error(self, tmp_path, leaf, value):
        save(head_init(HeadConfig(feature_dim=4), seed=0), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / f"{leaf}.tnsr"
        arr = read_tensor(path)
        arr.reshape(-1)[-1] = value
        write_tensor(path, arr)
        with pytest.raises(ArtifactError, match="not finite"):
            load_head(tmp_path / "ckpt", DIGEST)
