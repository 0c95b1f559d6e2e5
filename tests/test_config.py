import json

import pytest

from momentspot.config import ConfigError, LossWeights, ModelConfig

from conftest import tiny_config


# sizes that once built a model (or failed inside Model with a plain ValueError)
BAD_SIZES = [
    pytest.param(dict(proj_kernel=-1), "proj_kernel", id="proj_kernel-negative"),
    pytest.param(dict(refine_kernel=-3), "refine_kernel", id="refine_kernel-negative"),
    pytest.param(dict(video_parts=(("clip_v", -4),)), "video_parts", id="video-part-negative"),
    pytest.param(dict(text_parts=(("clip_t", -4),)), "text_parts", id="text-part-negative"),
    pytest.param(dict(video_parts=(("clip_v", 0),)), "video_parts", id="video-part-zero"),
    pytest.param(dict(text_parts=(("clip_t", 0),)), "text_parts", id="text-part-zero"),
    pytest.param(dict(ffn_dim=0), "ffn_dim", id="ffn_dim-zero"),
    pytest.param(dict(max_clips=0), "max_clips", id="max_clips-zero"),
]


class TestValidation:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.video_dim == 512 + 2304 + 768
        assert cfg.text_dim == 512 + 768

    @pytest.mark.parametrize("overrides", [
        dict(hidden_dim=30, heads=8),      # not divisible
        dict(hidden_dim=0),
        dict(proj_kernel=2),
        dict(refine_kernel=4),
        dict(fusion_mode="both_ways"),
        dict(dtype="float16"),
        dict(video_parts=()),
        dict(text_parts=()),
        dict(encoder_layers=0),
        dict(num_queries=0),
        dict(val_fraction=1.0),
        dict(val_fraction=-0.1),
        dict(batch_size=0),
        dict(epochs=-1),
        dict(eval_every=-1),
        dict(heads=0),
        dict(heads=-2),
        dict(video_parts=(("resnet", 10),)),
        dict(video_parts=(("clip_t", 10),)),  # a text encoder as a video part
        dict(text_parts=(("glove", 6),)),
        dict(dropout=1.5),
        dict(dropout=1.0),
        dict(dropout=-0.1),
        dict(input_dropout=1.0),
        dict(input_dropout=-0.5),
        dict(max_text_len=0),
        dict(weights=LossWeights(temperature=0.0)),
        dict(weights=LossWeights(temperature=float("nan"))),
    ])
    def test_rejects(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    @pytest.mark.parametrize("overrides, field", BAD_SIZES)
    def test_bad_size_names_its_field(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            ModelConfig.desk(**overrides)

    def test_desk_preset(self):
        cfg = ModelConfig.desk()
        assert cfg.hidden_dim == 32
        assert cfg.dtype == "float64"
        assert cfg.video_dim == 24 and cfg.text_dim == 16
        assert cfg.dropout == 0.0 and cfg.input_dropout == 0.0
        assert ModelConfig.desk(epochs=5).epochs == 5


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(lr=0.005, fusion_mode="text_to_video")
        path = tmp_path / "config.json"
        cfg.to_json(path)
        back = ModelConfig.from_json(path)
        assert back == cfg

    def test_weights_round_trip(self):
        cfg = tiny_config(weights=LossWeights(l1=3.0, margin=0.5))
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back.weights.l1 == 3.0
        assert back.weights.margin == 0.5

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            ModelConfig.from_dict({"hidden_size": 64})
        assert "hidden_size" in str(err.value)

    def test_unknown_weight_field_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"weights": {"iou": 1.0}})

    @pytest.mark.parametrize("text, field", [
        ('{"weights": {"temperature": 0}}', "temperature"),
        ('{"weights": {"temperature": -0.5}}', "temperature"),
        ('{"lr": NaN}', "lr"),
        ('{"weight_decay": Infinity}', "weight_decay"),
        ('{"grad_clip": NaN}', "grad_clip"),
        ('{"clip_len": -Infinity}', "clip_len"),
        ('{"weights": {"l1": NaN}}', "l1"),
        ('{"weights": {"margin": Infinity}}', "margin"),
        ('{"weights": {"temperature": NaN}}', "temperature"),
    ])
    def test_non_finite_values_and_temperature_rejected(self, text, field):
        # json.loads reads NaN and Infinity as floats, so the JSON types pass
        with pytest.raises(ConfigError, match=f"field {field} must be"):
            ModelConfig.from_dict(json.loads(text))

    @pytest.mark.parametrize("overrides, field", BAD_SIZES)
    def test_bad_size_in_a_dict_names_its_field(self, overrides, field):
        # the path of a --config file and of a checkpoint header's config
        d = json.loads(ModelConfig.desk().to_json())
        d.update(json.loads(json.dumps(overrides)))
        with pytest.raises(ConfigError, match=field):
            ModelConfig.from_dict(d)

    def test_parts_normalized_to_tuples(self):
        cfg = ModelConfig.from_dict({"video_parts": [["clip_v", 8]],
                                     "text_parts": [["clip_t", 4]]})
        assert cfg.video_parts == (("clip_v", 8),)
        assert cfg.text_parts == (("clip_t", 4),)

    @pytest.mark.parametrize("d, field", [
        pytest.param(7, "config must be an object", id="int"),
        pytest.param(["a"], "config must be an object", id="list"),
        pytest.param({"video_parts": 7}, "video_parts", id="parts-not-a-list"),
        pytest.param({"video_parts": [["clip_v", "x"]]}, "video_parts", id="part-dim-string"),
        pytest.param({"video_parts": [["clip_v", 8, 1]]}, "video_parts", id="part-triple"),
        pytest.param({"hidden_dim": "wide"}, "hidden_dim", id="dim-string"),
        pytest.param({"hidden_dim": 32.0}, "hidden_dim", id="dim-float"),
        pytest.param({"use_refinement": 1}, "use_refinement", id="bool-int"),
        pytest.param({"lr": True}, "lr", id="number-bool"),
        pytest.param({"weights": 7}, "weights", id="weights-not-an-object"),
        pytest.param({"weights": {"l1": "x"}}, "l1", id="weight-string"),
    ])
    def test_malformed_dict_is_a_config_error_naming_the_field(self, d, field):
        with pytest.raises(ConfigError, match=field):
            ModelConfig.from_dict(d)
