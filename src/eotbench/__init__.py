"""Benchmark harness for joint emotion detection and opinion-trigger
extraction on customer reviews: corpus sampling, gold aggregation,
agreement statistics, prompt construction, HTTP inference, extractive
output validation, and the metric suite."""

from .model import (
    Domain,
    EmotionLabel,
    EmotionTriggers,
    EotOutput,
    Review,
    TriggerSpan,
    canonical_emotion,
    locate_span,
    normalize_text,
    tokenize,
)
from .prompting import Strategy, build_prompt, render_messages

__all__ = [
    "Domain",
    "EmotionLabel",
    "EmotionTriggers",
    "EotOutput",
    "Review",
    "Strategy",
    "TriggerSpan",
    "build_prompt",
    "canonical_emotion",
    "locate_span",
    "normalize_text",
    "render_messages",
    "tokenize",
]

__version__ = "0.1.0"
