from __future__ import annotations

import json

import pytest

from eotbench.errors import DataError
from eotbench.model import Domain, Review
from eotbench.prompting import (
    DEFAULT_CONFIG,
    PromptSpec,
    Strategy,
    build_prompt,
    load_config,
    render_messages,
)
from conftest import GOLDEN_DIR

SELF_CHECK_NAMES = (
    "Emotion Coverage",
    "Trigger Coverage",
    "Emotion Faithfulness",
    "Opinion Trigger Verifiability",
)


def snapshot_review() -> Review:
    return Review(
        "snap-1",
        "The blender works perfectly and arrived two days early.",
        Domain.HOME,
        "item-9",
    )


def rendered_text(strategy: Strategy, review: Review) -> str:
    return "\n".join(
        f"=== role: {role} ===\n{content}"
        for role, content in render_messages(build_prompt(strategy, review))
    )


class TestBuildPrompt:
    def test_eot_detect_has_five_instructions_and_all_check_names(self, sample_review):
        spec = build_prompt(Strategy.EOT_DETECT, sample_review)
        assert len(spec.instructions) == 5
        final_step = spec.instructions[-1]
        for name in SELF_CHECK_NAMES:
            assert name in final_step

    def test_step_by_step_in_zs_cot_only(self, sample_review):
        texts = {s: rendered_text(s, sample_review) for s in Strategy}
        assert "think step-by-step" in texts[Strategy.ZS_COT]
        assert "think step-by-step" not in texts[Strategy.ZS]
        assert "think step-by-step" not in texts[Strategy.EOT_DETECT]

    def test_zs_cot_asks_for_reasoning_before_answer(self, sample_review):
        spec = build_prompt(Strategy.ZS_COT, sample_review)
        assert "reasoning" in spec.task_description.lower()
        assert spec.instructions == ()
        assert spec.system_message == ""

    def test_deterministic(self, sample_review):
        assert rendered_text(Strategy.EOT_DETECT, sample_review) == rendered_text(
            Strategy.EOT_DETECT, sample_review
        )

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_review_text_appears_exactly_once_verbatim(self, strategy, sample_review):
        text = rendered_text(strategy, sample_review)
        assert text.count(sample_review.text) == 1

    def test_extractive_wording_always_present(self, sample_review):
        for strategy in Strategy:
            spec = build_prompt(strategy, sample_review)
            assert "exact substrings" in spec.task_description

    def test_non_structured_strategies_reject_instructions(self):
        with pytest.raises(ValueError):
            PromptSpec("", "task", ("step",), "Review:\nx", "contract", Strategy.ZS)


class TestRenderMessages:
    def test_eot_detect_message_roles(self, sample_review):
        messages = render_messages(build_prompt(Strategy.EOT_DETECT, sample_review))
        assert [role for role, _ in messages] == ["system", "user"]

    def test_zs_single_user_message(self, sample_review):
        messages = render_messages(build_prompt(Strategy.ZS, sample_review))
        assert [role for role, _ in messages] == ["user"]

    def test_component_order_preserved(self, sample_review):
        spec = build_prompt(Strategy.EOT_DETECT, sample_review)
        user = render_messages(spec)[1][1]
        positions = [
            user.index(spec.task_description[:40]),
            user.index(spec.instructions[0][:40]),
            user.index(spec.instructions[4][:40]),
            user.index(sample_review.text),
            user.index(spec.output_contract[:40]),
        ]
        assert positions == sorted(positions)


class TestGoldenSnapshots:
    @pytest.mark.parametrize(
        "strategy,name",
        [
            (Strategy.ZS, "zs"),
            (Strategy.ZS_COT, "zs_cot"),
            (Strategy.EOT_DETECT, "eot_detect"),
        ],
    )
    def test_rendered_prompt_matches_pinned_golden_file(self, strategy, name):
        expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        assert rendered_text(strategy, snapshot_review()) + "\n" == expected


class TestLoadConfig:
    def test_defaults_match_standard_configuration(self):
        assert load_config() == DEFAULT_CONFIG == {
            "temperature": 0.2, "top_p": 0.95, "top_k": 25, "max_tokens": 2500, "n": 1,
        }
        assert load_config() is not DEFAULT_CONFIG

    def test_file_roundtrip(self, tmp_path):
        config = {"temperature": 0.7, "top_p": 0.8, "top_k": 10, "max_tokens": 128, "n": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert load_config(path) == config

    def test_unknown_key_is_a_data_error_naming_key_and_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"temprature": 0.7}))
        with pytest.raises(DataError, match=r"config\.json.*'temprature'"):
            load_config(path)

    @pytest.mark.parametrize("field, kind", [("temperature", "a number"), ("top_k", "an integer"), ("n", "an integer")])
    def test_a_boolean_is_not_a_number(self, tmp_path, field, kind):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: True}))
        with pytest.raises(DataError, match=rf"config\.json.*{field} is not {kind}: True$"):
            load_config(path)

    @pytest.mark.parametrize("field, value", [("top_k", 2.5), ("max_tokens", 1e3), ("n", 1.0)])
    def test_a_float_for_an_integer_field_is_a_data_error(self, tmp_path, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(DataError, match=rf"config\.json.*{field} is not an integer: {value!r}$"):
            load_config(path)

    @pytest.mark.parametrize("field, value, decoded", [
        ("temperature", "NaN", "nan"), ("temperature", "Infinity", "inf"), ("top_p", "NaN", "nan"),
    ])
    def test_a_non_finite_float_is_a_data_error(self, tmp_path, field, value, decoded):
        # json.load reads NaN and Infinity, which no JSON document may hold
        path = tmp_path / "config.json"
        path.write_text(f'{{"{field}": {value}}}')
        with pytest.raises(DataError, match=rf"config\.json.*{field} is not a number: {decoded}$"):
            load_config(path)

    @pytest.mark.parametrize("field, value, reason", [
        ("temperature", -0.1, "temperature must be >= 0"),
        ("top_p", 0.0, r"top_p must be in \(0, 1\]"),
        ("max_tokens", 0, "top_k and max_tokens must be >= 1"),
    ])
    def test_validation(self, tmp_path, field, value, reason):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(DataError, match=rf"config\.json: bad inference config: {reason}$"):
            load_config(path)
