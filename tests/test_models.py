import math
import shutil
from dataclasses import fields

import numpy as np
import pytest

from cbmi_nmt import models as M
from cbmi_nmt import tensor as T
from cbmi_nmt.corpus import PAD_ID
from cbmi_nmt.models import ModelConfig, init_params, lm_forward, nmt_forward
from conftest import fd_check

VOCAB = 11


@pytest.fixture(scope="module")
def tiny_config():
    return ModelConfig(
        vocab_size_src=VOCAB,
        vocab_size_tgt=VOCAB,
        embed_dim=16,
        ff_dim=24,
        enc_layers=1,
        dec_layers=2,
        lm_layers=1,
        heads=2,
    )


@pytest.fixture(scope="module")
def tiny_params(tiny_config):
    return init_params(tiny_config, seed=7, dtype=np.float64)


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(10, 10, embed_dim=10, heads=3)

    @pytest.mark.parametrize("name", ["enc_layers", "dec_layers", "lm_layers"])
    def test_negative_layer_count_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            ModelConfig(10, 10, **{name: -3})
        assert getattr(ModelConfig(10, 10, **{name: 0}), name) == 0

    def test_presets(self):
        base = ModelConfig(100, 100, **M.MODEL_PRESETS["base"])
        assert (base.embed_dim, base.enc_layers, base.heads) == (512, 6, 8)
        big = ModelConfig(100, 100, **M.MODEL_PRESETS["big"])
        assert (big.embed_dim, big.heads, big.dropout_residual) == (1024, 16, 0.3)
        assert set(M.MODEL_PRESETS) == {"desk", "base", "big"}


class TestInit:
    def test_same_seed_bitwise_identical(self, tiny_config):
        a = init_params(tiny_config, seed=3)
        b = init_params(tiny_config, seed=3)
        assert set(a.tensors) == set(b.tensors)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name].data, b.tensors[name].data)

    def test_different_seeds_differ(self, tiny_config):
        a = init_params(tiny_config, seed=3)
        b = init_params(tiny_config, seed=4)
        assert any(
            not np.array_equal(a.tensors[n].data, b.tensors[n].data) for n in a.tensors
        )

    def test_nmt_init_independent_of_lm_presence(self, tiny_config):
        with_lm = init_params(tiny_config, seed=5, with_lm=True)
        without = init_params(tiny_config, seed=5, with_lm=False)
        assert not without.has_lm
        for name, tensor in without.tensors.items():
            np.testing.assert_array_equal(tensor.data, with_lm.tensors[name].data)

    def test_embeddings_not_shared_between_models(self, tiny_params):
        nmt_emb = tiny_params.tensors["nmt.tgt_embed"].data
        lm_emb = tiny_params.tensors["lm.embed"].data
        assert nmt_emb is not lm_emb
        assert not np.array_equal(nmt_emb, lm_emb)

    def test_param_count_matches_closed_form(self, tiny_config, tiny_params):
        assert tiny_params.count("nmt.") == M.nmt_param_count(tiny_config)
        assert tiny_params.count("lm.") == M.lm_param_count(tiny_config)

    def test_lm_smaller_than_decoder_of_equal_depth(self, tiny_config):
        d, f = tiny_config.embed_dim, tiny_config.ff_dim
        per_layer_gap = M.decoder_layer_param_count(d, f) - M.lm_layer_param_count(d, f)
        assert per_layer_gap == M.attention_param_count(d) + 2 * d

    def test_base_preset_counts(self):
        # closed-form oracle at the full-size preset: 6/6/6 layers, dim 512
        cfg = ModelConfig(32000, 32000, **M.MODEL_PRESETS["base"])
        params = init_params(cfg, seed=0)
        assert params.count("nmt.") == M.nmt_param_count(cfg)
        assert params.count("lm.") == M.lm_param_count(cfg)
        assert params.count("lm.") < params.count("nmt.")


class TestNmtForward:
    def test_zero_output_projection_gives_uniform_rows(self, tiny_params):
        params = init_params(tiny_params.config, seed=7, dtype=np.float64)
        params.tensors["nmt.out.w"].data = np.zeros_like(params.tensors["nmt.out.w"].data)
        out = nmt_forward(params, [4, 5, 6], [1, 4, 5])
        np.testing.assert_allclose(out.data, math.log(1.0 / VOCAB), atol=1e-12)

    def test_rows_are_log_distributions(self, tiny_params, rng):
        out = nmt_forward(tiny_params, [4, 5, 6, 7], [1, 4, 5])
        logsumexp = np.log(np.exp(out.data).sum(axis=-1))
        np.testing.assert_allclose(logsumexp, 0.0, atol=1e-6)

    def test_batch_independence_bitwise(self, tiny_params):
        src = np.array([[4, 5, 6], [7, 8, 9]])
        tgt = np.array([[1, 4, 5], [1, 6, 7]])
        out1 = nmt_forward(tiny_params, src, tgt).data[0]
        src2 = src.copy()
        tgt2 = tgt.copy()
        src2[1] = [9, 8, 7]
        tgt2[1] = [1, 7, 6]
        out2 = nmt_forward(tiny_params, src2, tgt2).data[0]
        np.testing.assert_array_equal(out1, out2)

    def test_causality_future_token_changes(self, tiny_params):
        # same shape, different future tokens: rows before the change are
        # bitwise identical
        a = nmt_forward(tiny_params, [4, 5], [1, 4, 5, 6]).data
        b = nmt_forward(tiny_params, [4, 5], [1, 4, 9, 8]).data
        np.testing.assert_array_equal(a[:2], b[:2])

    def test_causality_truncation(self, tiny_params):
        # truncation changes matrix shapes, which may change BLAS summation
        # blocking; equality holds to rounding noise
        full = nmt_forward(tiny_params, [4, 5], [1, 4, 5, 6]).data
        truncated = nmt_forward(tiny_params, [4, 5], [1, 4]).data
        np.testing.assert_allclose(full[:2], truncated, atol=1e-12)

    def test_token_id_out_of_range(self, tiny_params):
        with pytest.raises(ValueError, match="out of range"):
            nmt_forward(tiny_params, [4, VOCAB], [1, 4])

    def test_training_mode_needs_rng(self, tiny_params):
        with pytest.raises(ValueError, match="rng"):
            nmt_forward(tiny_params, [4, 5], [1, 4], training=True)

    def test_dropout_deterministic_given_stream(self, tiny_params):
        out1 = nmt_forward(
            tiny_params, [4, 5], [1, 4], training=True, rng=np.random.default_rng(11)
        )
        out2 = nmt_forward(
            tiny_params, [4, 5], [1, 4], training=True, rng=np.random.default_rng(11)
        )
        np.testing.assert_array_equal(out1.data, out2.data)


class TestLiveRows:
    """``rows`` projects only the masked positions: their rows of the full
    forward, bit for bit, in row-major order."""

    SRC = np.array([[4, 5, 6, 2], [7, 8, 2, PAD_ID], [9, 2, PAD_ID, PAD_ID]])
    TGT_IN = np.array([[1, 4, 5, 6, 7], [1, 6, 7, PAD_ID, PAD_ID], [1, 8, PAD_ID, PAD_ID, PAD_ID]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("model", ["nmt", "lm"])
    def test_rows_are_the_full_rows(self, tiny_config, dtype, model):
        params = init_params(tiny_config, seed=7, dtype=dtype)

        def forward(**kwargs):
            if model == "nmt":
                return nmt_forward(params, self.SRC, self.TGT_IN, **kwargs).data
            return lm_forward(params, self.TGT_IN, **kwargs).data

        mask = self.TGT_IN != PAD_ID
        mask[0, 2] = False  # a hole inside a sentence keeps the row order
        full, live = forward(), forward(rows=mask)
        assert live.shape == (mask.sum(), VOCAB) and live.dtype == dtype
        assert live.tobytes() == full[mask].tobytes()

    def test_one_sentence(self, tiny_params):
        full = nmt_forward(tiny_params, [4, 5, 6], [1, 4, 5]).data
        live = nmt_forward(tiny_params, [4, 5, 6], [1, 4, 5], rows=[True, False, True]).data
        assert live.tobytes() == full[[0, 2]].tobytes()

    def test_mask_shape_must_match_the_targets(self, tiny_params):
        with pytest.raises(ValueError, match="rows mask"):
            lm_forward(tiny_params, self.TGT_IN, rows=np.ones((3, 4), dtype=bool))


class TestSinusoidTable:
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    @pytest.mark.parametrize("dim, step", [(16, 1), (64, 1), (512, 7)])
    def test_slices_equal_a_direct_computation(self, monkeypatch, dim, dtype, step):
        # lengths asked in increasing order, as a decoder asks: the table
        # grows, and each slice holds the bytes of a table of that length
        monkeypatch.setattr(M, "_SINUSOID_TABLES", {})
        for length in [*range(1, 1001, step), 1000]:
            got = M._sinusoid_table(length, dim, dtype)
            assert got.dtype == np.dtype(dtype) and got.shape == (length, dim)
            assert got.tobytes() == M._sinusoid_rows(length, dim, dtype).tobytes()
        assert len(M._SINUSOID_TABLES[(dim, dtype)]) == 1024

    def test_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            M._sinusoid_table(4, 16, "<f8")[0, 0] = 1.0


class TestLmForward:
    def test_source_independence_is_bitwise(self, tiny_params):
        # same target inputs paired with different sources: the LM cannot see
        # a source at all, so the outputs are identical arrays
        tgt = np.array([[1, 4, 5], [1, 6, 7]])
        out_a = lm_forward(tiny_params, tgt).data
        out_b = lm_forward(tiny_params, tgt).data
        np.testing.assert_array_equal(out_a, out_b)

    def test_zero_output_projection_uniform(self, tiny_config):
        params = init_params(tiny_config, seed=7, dtype=np.float64)
        params.tensors["lm.out.w"].data = np.zeros_like(params.tensors["lm.out.w"].data)
        out = lm_forward(params, [1, 4, 5])
        np.testing.assert_allclose(out.data, math.log(1.0 / VOCAB), atol=1e-12)

    def test_causal_truncation(self, tiny_params):
        full = lm_forward(tiny_params, [1, 4, 5, 6, 7]).data
        head = lm_forward(tiny_params, [1, 4, 5]).data
        np.testing.assert_allclose(full[:3], head, atol=1e-12)

    def test_causal_future_token_changes(self, tiny_params):
        a = lm_forward(tiny_params, [1, 4, 5, 6, 7]).data
        b = lm_forward(tiny_params, [1, 4, 5, 8, 9]).data
        np.testing.assert_array_equal(a[:3], b[:3])

    def test_rows_are_log_distributions(self, tiny_params):
        out = lm_forward(tiny_params, [1, 4, 5, 6])
        np.testing.assert_allclose(np.log(np.exp(out.data).sum(-1)), 0.0, atol=1e-6)

    def test_without_lm_raises(self, tiny_config):
        params = init_params(tiny_config, seed=1, with_lm=False)
        with pytest.raises(ValueError, match="language model"):
            lm_forward(params, [1, 4])


class TestModelGradients:
    def test_full_model_finite_differences(self, tiny_config, rng):
        """End-to-end gradient check through embeddings, attention (self and
        cross), layer norm, feed-forward, and the weighted loss."""
        params = init_params(tiny_config, seed=13, dtype=np.float64, with_lm=False)
        src = np.array([[4, 5, 6], [7, 8, 0]])
        tgt_in = np.array([[1, 4, 5], [1, 6, 0]])
        tgt_out = np.array([4, 5, 2, 6, 2, 0])
        weights = np.array([1.0, 0.7, 1.3, 1.0, 0.5, 0.0])

        names = sorted(params.tensors)
        arrays = [params.tensors[n].data for n in names]

        def make_loss(*tensors):
            p = M.ModelParams(tiny_config, dict(zip(names, tensors)))
            log_probs = nmt_forward(p, src, tgt_in)
            flat = T.reshape(log_probs, (6, VOCAB))
            return T.weighted_cross_entropy(flat, tgt_out, weights, 0.1)

        fd_check(make_loss, arrays, rng, samples_per_tensor=3)

    def test_lm_finite_differences(self, tiny_config, rng):
        params = init_params(tiny_config, seed=13, dtype=np.float64)
        tgt_in = np.array([[1, 4, 5, 6]])
        tgt_out = np.array([4, 5, 6, 2])
        names = sorted(k for k in params.tensors if k.startswith("lm."))
        arrays = [params.tensors[n].data for n in names]
        full = {k: v for k, v in params.tensors.items()}

        def make_loss(*tensors):
            merged = dict(full)
            merged.update(dict(zip(names, tensors)))
            p = M.ModelParams(tiny_config, merged)
            log_probs = lm_forward(p, tgt_in)
            flat = T.reshape(log_probs, (4, VOCAB))
            return T.weighted_cross_entropy(flat, tgt_out, np.ones(4), 0.0)

        fd_check(make_loss, arrays, rng, samples_per_tensor=3)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path, tiny_config):
        params = init_params(tiny_config, seed=21, dtype=np.float32)
        extras = {"opt.nmt.t": np.array([17.0]), "opt.nmt.m.nmt.out.w": np.ones((16, VOCAB))}
        M.save_checkpoint(tmp_path / "ckpt", params, step=17, extra_arrays=extras,
                          meta={"vocab_tgt_hash": "abc123"})
        loaded, loaded_extras, meta = M.load_checkpoint(tmp_path / "ckpt")
        assert meta["step"] == "17"
        assert meta["precision"] == "fp32"
        assert meta["vocab_tgt_hash"] == "abc123"
        assert loaded.config == tiny_config
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name].data, params.tensors[name].data)
            assert loaded.tensors[name].requires_grad
        np.testing.assert_array_equal(loaded_extras["opt.nmt.t"], extras["opt.nmt.t"])

    def test_parameters_do_not_hold_the_extras(self, tmp_path, tiny_config):
        # a caller that drops the extras (optimizer state) frees their bytes
        params = init_params(tiny_config, seed=21, dtype=np.float32)
        extras = {"opt.nmt.t": np.array([17.0]), "opt.nmt.m.nmt.out.w": np.ones((16, VOCAB))}
        M.save_checkpoint(tmp_path / "ckpt", params, step=17, extra_arrays=extras)
        loaded, loaded_extras, _ = M.load_checkpoint(tmp_path / "ckpt")

        def buffer(arr):
            """The bytes object or array that owns ``arr``'s memory."""
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            if isinstance(arr.base, memoryview):
                return arr.base.obj
            return arr if arr.base is None else arr.base

        param_buffers = {id(buffer(t.data)): buffer(t.data) for t in loaded.tensors.values()}
        extra_buffers = {id(buffer(a)) for a in loaded_extras.values()}
        assert not param_buffers.keys() & extra_buffers
        assert sum(len(b) for b in param_buffers.values()) == sum(
            t.data.nbytes for t in loaded.tensors.values())
        for name, arr in loaded_extras.items():
            np.testing.assert_array_equal(arr, extras[name])
            assert arr.flags.writeable

    def test_blob_is_read_in_two_reads_in_either_index_order(self, tmp_path, tiny_config,
                                                             monkeypatch):
        # older checkpoints list (and lay out) their entries sorted by name;
        # either way the parameters and the extras are each read at once
        params = init_params(tiny_config, seed=21, dtype=np.float32)
        extras = {"opt.nmt.t": np.array([17.0]), "opt.nmt.m.nmt.out.w": np.ones((16, VOCAB))}
        M.save_checkpoint(tmp_path / "ckpt", params, step=17, extra_arrays=extras)
        shutil.copytree(tmp_path / "ckpt", tmp_path / "sorted")
        entries = sorted(line.split("\t") for line in
                         (tmp_path / "ckpt" / "tensors.idx").read_text().splitlines())
        blob, old_blob, lines = bytearray(), (tmp_path / "ckpt" / "tensors.bin").read_bytes(), []
        for name, dtype, shape, offset in entries:
            size = np.dtype(dtype).itemsize * math.prod(int(n) for n in shape.split(",") if n)
            lines.append(f"{name}\t{dtype}\t{shape}\t{len(blob)}")
            blob += old_blob[int(offset) : int(offset) + size]
        (tmp_path / "sorted" / "tensors.bin").write_bytes(blob)
        (tmp_path / "sorted" / "tensors.idx").write_text("\n".join(lines) + "\n")
        assert blob != old_blob

        reads = []

        class CountedReads:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def seek(self, offset):
                return self.fh.seek(offset)

            def readinto(self, buffer):
                reads.append(len(buffer))
                return self.fh.readinto(buffer)

        monkeypatch.setattr(M, "open", lambda *a: CountedReads(open(*a)), raising=False)
        for layout in ("ckpt", "sorted"):
            reads.clear()
            loaded, loaded_extras, _ = M.load_checkpoint(tmp_path / layout)
            assert reads == [sum(t.data.nbytes for t in params.tensors.values()),
                             sum(a.nbytes for a in extras.values())], layout
            for name in params.tensors:
                np.testing.assert_array_equal(loaded.tensors[name].data, params.tensors[name].data)
            for name, arr in loaded_extras.items():
                np.testing.assert_array_equal(arr, extras[name])

    def test_manifest_is_sorted_key_value_text(self, tmp_path, tiny_config):
        params = init_params(tiny_config, seed=1)
        M.save_checkpoint(tmp_path / "c", params, step=0)
        lines = (tmp_path / "c" / "manifest.txt").read_text().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == sorted(keys)
        assert all("=" in line for line in lines)
        assert [k for k in keys if k.startswith("config.")] == sorted(
            f"config.{f.name}" for f in fields(ModelConfig))
        assert "config.share_vocab" not in keys and "config.max_len" not in keys

    def test_tampered_config_hash_detected(self, tmp_path, tiny_config):
        params = init_params(tiny_config, seed=1)
        M.save_checkpoint(tmp_path / "c", params, step=0)
        manifest = tmp_path / "c" / "manifest.txt"
        text = manifest.read_text().replace("config.embed_dim=16", "config.embed_dim=32")
        manifest.write_text(text)
        with pytest.raises(M.CheckpointError, match="hash"):
            M.load_checkpoint(tmp_path / "c")

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(M.CheckpointError, match="manifest"):
            M.load_checkpoint(tmp_path / "nope")
