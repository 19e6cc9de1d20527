"""Prompt construction for the three strategies: zs, zs-cot, eot-detect.

Template wording is a versioned artifact: PROMPT_VERSION is recorded in
run manifests and the rendered text of each strategy is pinned by golden
snapshot tests. The structured strategy decomposes into a system
message, a task description, five ordered instruction steps ending in a
four-condition self-check, and the review block; the other two carry the
task description and review only.

The inference configuration is a plain dict, keyed as the run manifest's
``config``: ``DEFAULT_CONFIG``, or ``load_config`` of a ``--config`` file
laid over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any

from .errors import data_errors
from .jsonio import INTEGER, NUMBER, check_fields, load_json
from .model import Review

PROMPT_VERSION = "1.0.0"

EMOTION_MENU = "Joy, Trust, Fear, Surprise, Sadness, Disgust, Anger, Anticipation"


class Strategy(Enum):
    ZS = "zs"
    ZS_COT = "zs-cot"
    EOT_DETECT = "eot-detect"


OUTPUT_SCHEMA_LINE = (
    '{"emotions": [{"emotion": "<label>", "triggers": ["<exact substring of the review>"]}]}'
)

OUTPUT_CONTRACT = (
    "Respond with a single JSON object and nothing else, in exactly this format:\n"
    f"{OUTPUT_SCHEMA_LINE}\n"
    f'Each "emotion" must be one of: {EMOTION_MENU}, Neutral. '
    'If the review expresses no discernible emotion, respond with '
    '{"emotions": [{"emotion": "Neutral", "triggers": []}]}.'
)

OUTPUT_CONTRACT_AFTER_REASONING = (
    "After your reasoning, finish your response with a single JSON object in exactly this format:\n"
    f"{OUTPUT_SCHEMA_LINE}\n"
    f'Each "emotion" must be one of: {EMOTION_MENU}, Neutral. '
    'If the review expresses no discernible emotion, the object is '
    '{"emotions": [{"emotion": "Neutral", "triggers": []}]}. '
    "Do not write anything after the JSON object."
)

ZS_TASK = (
    "Analyze the customer review below. Identify every emotion the reviewer expresses, "
    f"choosing only from: {EMOTION_MENU}. For each identified emotion, extract its opinion "
    "triggers: the exact, unmodified text spans from the review that explain why that emotion "
    "is present. Opinion triggers must be exact substrings of the review, copied verbatim. "
    "A review may express several emotions, and one emotion may have several triggers. "
    "If no discernible emotion is expressed, label the review Neutral with no triggers."
)

ZS_COT_DIRECTIVE = (
    "Let's think step-by-step. Before giving the final answer, write out your reasoning: "
    "work through the review, noting each emotional signal and the exact wording that causes "
    "it. Generate the reasoning first, then the final answer."
)

EOT_SYSTEM_MESSAGE = (
    "You are an expert emotion analyst specializing in customer reviews. You identify the "
    "emotions a reviewer expresses and the exact wording that triggers them, and you follow "
    "the given instructions precisely."
)

EOT_TASK = (
    "Task Definition: Detect the emotions expressed in the customer review below and extract "
    "the opinion triggers for each detected emotion directly from the review text.\n\n"
    "Opinion Trigger Definition: An opinion trigger is a contiguous text span that explains "
    "why an emotion is present. Triggers must be exact substrings of the review, copied "
    "verbatim.\n\n"
    f"Emotion Scope: Consider only these eight emotions: {EMOTION_MENU}. If none of them is "
    "expressed, label the review as Neutral.\n\n"
    "Guidelines: Copy trigger text with no modifications. Multiple emotions are possible in "
    "one review, and a single emotion may have multiple triggers. Stay faithful to the review "
    "text and do not add emotions that are not expressed."
)

EOT_INSTRUCTIONS = (
    "Focus on Key Emotions: Read the review carefully and identify every emotion it "
    "expresses, or Neutral if none is found.",
    "Link Emotions to Opinion Triggers: For each identified emotion, extract one or more "
    "text spans from the review that explain why the emotion is present.",
    "Maintain Balance: Capture both majority and minority emotions, so that no emotion is "
    "over- or underrepresented.",
    "Keep it Clear: Finalize the detected emotions and their triggers, keeping every trigger "
    "strictly extractive.",
    "Final Self-Check: Before answering, verify Emotion Coverage (every expressed emotion is "
    "captured, including minority ones), Trigger Coverage (all relevant triggers for each "
    "emotion are extracted), Emotion Faithfulness (no extra or unwarranted emotions are "
    "added), and Opinion Trigger Verifiability (every trigger is exactly a substring of the "
    "review).",
)


@dataclass(frozen=True)
class PromptSpec:
    """A rendered prompt, decomposable into its structured components."""

    system_message: str
    task_description: str
    instructions: tuple[str, ...]
    review_block: str
    output_contract: str
    strategy: Strategy

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if self.strategy is Strategy.EOT_DETECT and len(self.instructions) != 5:
            raise ValueError("the structured strategy requires exactly 5 instruction steps")
        if self.strategy is not Strategy.EOT_DETECT and self.instructions:
            raise ValueError("only the structured strategy carries instruction steps")


# the standardized sampling configuration used across providers; a config
# file may set any of its keys, and no other
DEFAULT_CONFIG = {"temperature": 0.2, "top_p": 0.95, "top_k": 25, "max_tokens": 2500, "n": 1}
CONFIG_SPEC = (
    ("temperature", NUMBER, False, None), ("top_p", NUMBER, False, None), ("top_k", INTEGER, False, None),
    ("max_tokens", INTEGER, False, None), ("n", INTEGER, False, None),
)


def load_config(path: Path | str | None = None) -> dict[str, Any]:
    """The inference config in ``path`` laid over ``DEFAULT_CONFIG``, in its
    key order; a copy of ``DEFAULT_CONFIG`` when there is no path."""
    if path is None:
        return dict(DEFAULT_CONFIG)
    data = load_json(path)
    with data_errors(path, "inference config"):
        check_fields(data, CONFIG_SPEC, closed=True)
        config = {**DEFAULT_CONFIG, **data}
        if config["temperature"] < 0:
            raise ValueError("temperature must be >= 0")
        if not (0 < config["top_p"] <= 1):
            raise ValueError("top_p must be in (0, 1]")
        if config["top_k"] < 1 or config["max_tokens"] < 1:
            raise ValueError("top_k and max_tokens must be >= 1")
        if config["n"] != 1:  # the ledger keeps one answer per review, as the paper samples one
            raise ValueError(f"n must be 1, not {config['n']!r}")
    return config


def build_prompt(strategy: Strategy, review: Review) -> PromptSpec:
    """Construct the prompt for one review under one strategy.

    Deterministic: the same (strategy, review) always yields the same
    spec, and the review text appears verbatim in the review block.
    """
    review_block = f"Review:\n{review.text}"
    if strategy is Strategy.ZS:
        return PromptSpec("", ZS_TASK, (), review_block, OUTPUT_CONTRACT, strategy)
    if strategy is Strategy.ZS_COT:
        task = f"{ZS_TASK}\n\n{ZS_COT_DIRECTIVE}"
        return PromptSpec("", task, (), review_block, OUTPUT_CONTRACT_AFTER_REASONING, strategy)
    return PromptSpec(
        EOT_SYSTEM_MESSAGE, EOT_TASK, EOT_INSTRUCTIONS, review_block, OUTPUT_CONTRACT, strategy
    )


def render_messages(spec: PromptSpec) -> list[tuple[str, str]]:
    """Chat messages for a prompt spec, preserving the S, T, I, R order."""
    parts = [spec.task_description]
    if spec.instructions:
        parts.append(
            "Instructions:\n"
            + "\n".join(f"{i}. {step}" for i, step in enumerate(spec.instructions, start=1))
        )
    parts.append(spec.review_block)
    parts.append(spec.output_contract)
    user_content = "\n\n".join(parts)
    if spec.system_message:
        return [("system", spec.system_message), ("user", user_content)]
    return [("user", user_content)]
