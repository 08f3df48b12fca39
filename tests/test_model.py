"""Model-level tests: variants, config files, forward contracts, gradients
through all parameter groups, and the FLOP estimator."""

import math

import numpy as np
import pytest

from pronext import autodiff as ad
from pronext import model as M
from pronext.errors import ConfigError, DimensionError
from pronext.experiments import ABLATION_ROWS


def desk_config(**overrides):
    base = dict(input_size=32, stem_channels=8, patch_size=4, embed_dim=64,
                ca_layers=1, ca_heads=4, num_classes=4)
    base.update(overrides)
    return M.ModelConfig(**base).validate()


def random_input(cfg, B=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((B, cfg.input_size, cfg.input_size, cfg.in_channels)).astype(np.float32)


class TestVariants:
    def test_b_variant_layers_and_heads(self):
        cfg = M.build_variant("B", 8)
        assert cfg.ca_layers == 3
        assert cfg.ca_heads == 12
        assert cfg.embed_dim % cfg.ca_heads == 0

    def test_s_embedding_length(self):
        assert M.build_variant("S", 2).embed_dim == 384

    def test_variant_table_is_total(self):
        for name in M.VARIANT_TABLE:
            for k in (8, 4, 2):
                cfg = M.build_variant(name, k)
                assert cfg.validate() is cfg

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            M.build_variant("XXL", 8)


class TestConfigValidation:
    def test_input_divisibility(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(input_size=40, patch_size=4).validate()
        with pytest.raises(ConfigError):
            M.ModelConfig(input_size=32, patch_size=8).validate()

    def test_heads_divisibility(self):
        with pytest.raises(ConfigError):
            desk_config(embed_dim=62)

    def test_parser_mode_names(self):
        with pytest.raises(ConfigError):
            desk_config(parser_mode="attention")

    def test_stage_arithmetic(self):
        cfg = M.build_variant("S", 8, input_size=64)
        assert [cfg.grid_side(l) for l in range(3)] == [8, 4, 2]
        cfg = desk_config()
        assert [cfg.grid_side(l) for l in range(3)] == [8, 4, 2]
        assert [cfg.stage_channels(l) for l in range(4)] == [8, 16, 32, 64]


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = desk_config(parser_mode="spatial_attention", band_pass=False)
        path = tmp_path / "model.cfg"
        path.write_text(M.config_text(cfg))
        loaded = M.load_config(M.ModelConfig, path)
        assert loaded == cfg

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(M.config_text(desk_config()))
        with open(path, "a") as fh:
            fh.write("learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            M.load_config(M.ModelConfig, path)

    def test_missing_key_is_named(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text(M.config_text(desk_config()))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("embed_dim")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="embed_dim"):
            M.load_config(M.ModelConfig, path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(M.config_text(desk_config()))
        with open(path, "a") as fh:
            fh.write("embed_dim = 64\n")
        with pytest.raises(ConfigError, match="duplicate"):
            M.load_config(M.ModelConfig, path)

    def test_writer_format(self):
        text = M.config_text(desk_config(band_pass=False))
        lines = text.splitlines()
        assert text.endswith("\n") and len(lines) == 12
        assert lines[0] == "input_size = 32"
        assert "band_pass = False" in lines and "context_impression_enabled = True" in lines

    @pytest.mark.parametrize("word,value", [
        ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("False", False), ("NO", False), ("0", False)])
    def test_bool_spellings(self, word, value):
        text = M.config_text(desk_config()).replace("band_pass = True",
                                                    f"band_pass = {word}")
        assert M.parse_config(M.ModelConfig, text, "cfg").band_pass is value

    def test_comments_and_blank_lines_skipped(self):
        body = M.config_text(desk_config()).replace("\n", "  # note\n\n")
        assert M.parse_config(M.ModelConfig, "# header\n" + body, "cfg") == desk_config()

    @pytest.mark.parametrize("line,message", [
        ("embed_dim = 6.5", "cfg:3: expected int for 'embed_dim'"),
        ("band_pass = maybe", "cfg:3: expected bool for 'band_pass'"),
        ("context_impression_enabled", "cfg:3: expected 'key = value'"),
        # retired keys are still type-checked
        ("block_norm = maybe", "cfg:3: expected bool for 'block_norm'"),
        ("ca_ffn", "cfg:3: expected 'key = value'")])
    def test_bad_line_names_source_and_line(self, line, message):
        lines = M.config_text(desk_config()).splitlines()
        key = line.split()[0]
        lines = [l for l in lines if not l.startswith(key)]
        text = "\n".join(lines[:2] + [line] + lines[2:])
        with pytest.raises(ConfigError, match=message):
            M.parse_config(M.ModelConfig, text, "cfg")

    def test_retired_keys_read_at_their_one_value(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text(M.config_text(desk_config())
                        + "stages = 3\nblock_norm = True\nca_ffn = yes\n")
        assert M.load_config(M.ModelConfig, path) == desk_config()

    @pytest.mark.parametrize("line", ["block_norm = False", "ca_ffn = False", "stages = 4"])
    def test_retired_key_at_another_value_names_source_and_line(self, tmp_path, line):
        path = tmp_path / "old.cfg"
        path.write_text(M.config_text(desk_config()) + line + "\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"old.cfg:13: '{key}' is retired"):
            M.load_config(M.ModelConfig, path)

    def test_retired_key_twice_is_duplicate(self):
        text = M.config_text(desk_config()) + "stages = 3\nstages = 3\n"
        with pytest.raises(ConfigError, match="cfg:14: duplicate key 'stages'"):
            M.parse_config(M.ModelConfig, text, "cfg")

    def test_unreadable_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            M.load_config(M.ModelConfig, tmp_path / "absent.cfg")


class TestForward:
    def test_desk_shape_contract(self):
        cfg = desk_config()
        model = M.ProNextModel(cfg, seed=0)
        pred = model.forward(random_input(cfg))
        assert pred.logits.shape == (2, 4)
        assert len(pred.stage_masks) == 3
        assert [m.grid_side for m in pred.stage_masks] == [8, 4, 2]
        assert [e.shape for e in pred.stage_embeddings] == [(2, 64)] * 3
        assert pred.fused.shape == (2, 64)

    def test_parser_none_reduces_to_conv_net(self):
        cfg = desk_config(parser_mode="none", context_impression_enabled=False)
        model = M.ProNextModel(cfg, seed=0)
        pred = model.forward(random_input(cfg))
        assert pred.logits.shape == (2, 4)
        assert all(m is None for m in pred.stage_masks)
        assert all(e is None for e in pred.stage_embeddings)
        assert not any("parser" in name for name in model.params)

    def test_zeroing_context_changes_logits_iff_enabled(self):
        def head(model, fused):
            """The MLP head in numpy: linear -> tanh-form GELU -> linear."""
            h = fused @ model.mlp_w1.data + model.mlp_b1.data
            h = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * h ** 3)))
            return h @ model.mlp_w2.data + model.mlp_b2.data

        def context_sum(pred):
            return sum(e.data for e in pred.stage_embeddings if e is not None)

        rng_in = random_input(desk_config(), seed=3)
        model_on = M.ProNextModel(desk_config(), seed=1)
        # give the zero-init head a kick so logits respond to the embedding
        model_on.mlp_w2.data = np.random.default_rng(5).standard_normal(
            model_on.mlp_w2.shape).astype(np.float32) * 0.1
        pred = model_on.forward(rng_in)
        with_ctx = pred.logits.data
        np.testing.assert_allclose(head(model_on, pred.fused.data), with_ctx,
                                   rtol=1e-5, atol=1e-6)
        without_ctx = head(model_on, pred.fused.data - context_sum(pred))
        assert not np.allclose(with_ctx, without_ctx)

        model_off = M.ProNextModel(desk_config(context_impression_enabled=False), seed=1)
        model_off.mlp_w2.data = model_on.mlp_w2.data.copy()
        pred = model_off.forward(rng_in)
        assert all(e is None for e in pred.stage_embeddings)
        np.testing.assert_array_equal(context_sum(pred), 0)
        np.testing.assert_allclose(head(model_off, pred.fused.data), pred.logits.data,
                                   rtol=1e-5, atol=1e-6)

    def test_determinism_bit_for_bit(self):
        cfg = desk_config()
        m1 = M.ProNextModel(cfg, seed=7)
        m2 = M.ProNextModel(cfg, seed=7)
        x = random_input(cfg, seed=11)
        p1 = m1.forward(x)
        p2 = m2.forward(x)
        assert p1.logits.data.tobytes() == p2.logits.data.tobytes()
        for a, b in zip(p1.stage_masks, p2.stage_masks):
            assert a.binary.tobytes() == b.binary.tobytes()

    def test_argmax_stable_under_head_rescaling(self):
        cfg = desk_config()
        model = M.ProNextModel(cfg, seed=2)
        model.mlp_w2.data = np.random.default_rng(6).standard_normal(
            model.mlp_w2.shape).astype(np.float32)
        x = random_input(cfg, seed=4, B=4)
        base = np.argmax(model.forward(x).logits.data, axis=1)
        model.mlp_w2.data *= 3.7
        model.mlp_b2.data *= 3.7
        np.testing.assert_array_equal(np.argmax(model.forward(x).logits.data, axis=1), base)

    def test_input_shape_validation(self):
        model = M.ProNextModel(desk_config(), seed=0)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((2, 16, 16, 3), dtype=np.float32))

    def test_all_parser_modes_run(self):
        for mode in ("shift", "spatial_attention", "plain_field", "none"):
            cfg = desk_config(parser_mode=mode)
            model = M.ProNextModel(cfg, seed=0)
            pred = model.forward(random_input(cfg, B=1))
            assert np.isfinite(pred.logits.data).all()


class TestLossAndGrads:
    def test_initial_loss_is_log_k(self):
        for K in (2, 4, 8):
            cfg = desk_config(num_classes=K)
            model = M.ProNextModel(cfg, seed=0)
            x = random_input(cfg)
            target = np.zeros((2, K), dtype=np.float32)
            target[:, 0] = 1
            pred = model.forward(x)
            loss, _ = M.loss_and_grads(model, pred, target)
            assert abs(loss.item() - math.log(K)) < 1e-6

    def test_all_four_parameter_groups_reached(self):
        cfg = desk_config()
        model = M.ProNextModel(cfg, seed=0)
        # zero-init head blocks upstream gradients; randomize it for the check
        model.mlp_w2.data = np.random.default_rng(8).standard_normal(
            model.mlp_w2.shape).astype(np.float32) * 0.2
        x = random_input(cfg, seed=9)
        target = np.zeros((2, 4), dtype=np.float32)
        target[:, 1] = 1
        pred = model.forward(x)
        _, grads = M.loss_and_grads(model, pred, target)

        groups = {
            "conv": ["stem.block0.w", "stage1.post.w"],
            "parser": ["stage0.parser.cond_w", "stage0.parser.field.conv_w0"],
            "attention": ["stage0.gaze.ca_layers0.attn.wq", "stage2.gaze.token_w"],
            "mlp": ["head.mlp_w1", "head.fuse_w"],
        }
        for group, names in groups.items():
            for name in names:
                assert np.abs(grads[name]).max() > 0, f"{group}:{name} has zero gradient"

    # the desk default is the `band_pass` row; every ladder row runs in soft
    # mode, and hard mode on the default only: a 2x2 stage-2 grid with three
    # focal patches leaves one key, whose attention has no query gradient
    @pytest.mark.parametrize("mode, row", [
        pytest.param("hard", "band_pass", id="hard"),
        pytest.param("soft", "band_pass", id="soft"),
        *[pytest.param("soft", row, id=f"soft-{row}")
          for row, _ in ABLATION_ROWS if row != "band_pass"]])
    def test_every_parameter_moves_the_loss(self, mode, row):
        # in float64 a parameter the output cannot depend on (a bias in front
        # of block_norm, an attention key bias, a weight the row's forward
        # never reads) shows a roundoff or zero gradient many orders below
        # the rest
        with ad.precision("float64"):
            cfg = desk_config(**dict(ABLATION_ROWS)[row])
            model = M.ProNextModel(cfg, seed=0)
            model.mlp_w2.data = np.random.default_rng(8).standard_normal(model.mlp_w2.shape) * 0.2
            target = np.zeros((2, 4))
            target[:, 1] = 1
            pred = model.forward(random_input(cfg, seed=9).astype(np.float64), mode=mode)
            _, grads = M.loss_and_grads(model, pred, target)
        assert all(g.dtype == np.float64 for g in grads.values())
        peaks = {name: float(np.abs(g).max()) for name, g in grads.items()}
        top = max(peaks.values())
        assert [name for name, peak in peaks.items() if peak <= 1e-9 * top] == []

    def test_mixup_style_target(self):
        cfg = desk_config()
        model = M.ProNextModel(cfg, seed=0)
        x = random_input(cfg, B=1)
        target = np.array([[0.5, 0.0, 0.5, 0.0]], dtype=np.float32)
        pred = model.forward(x)
        loss, _ = M.loss_and_grads(model, pred, target)
        assert abs(loss.item() - math.log(4)) < 1e-6  # zero logits: ln K for any simplex target


class TestFlopCount:
    def test_single_mac_counting_rule(self):
        assert M._conv_flops(1, 1, 1, 1, 1) == 2

    def test_desk_s8_matches_hand_derivation(self):
        # closed-form sum derived term by term in docs/flops_hand_count.md
        cfg = M.build_variant("S", 8, input_size=64, num_classes=4)
        assert M.flop_count(cfg) * 1e9 == pytest.approx(775_886_336, rel=1e-9)

    def test_smaller_patch_strictly_costlier(self):
        for name in ("S", "B"):
            f8 = M.flop_count(M.build_variant(name, 8))
            f4 = M.flop_count(M.build_variant(name, 4))
            f2 = M.flop_count(M.build_variant(name, 2))
            assert f8 < f4 < f2

    def test_variant_order_at_fixed_patch(self):
        flops = [M.flop_count(M.build_variant(n, 4)) for n in ("S", "B", "L", "XL", "H")]
        assert flops == sorted(flops)
