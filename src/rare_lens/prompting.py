"""Prompt strings shared by the benchmark, the VLM fixture, and hint injection."""

from __future__ import annotations

QUESTION_TEMPLATES = (
    "please describe the object inside the marked region .",
    "what object is in the marked region ?",
)

HINT_SUFFIX = " [Detected: {names}]"


def hint_suffix(names: list[str]) -> str:
    """' [Detected: a, b, c]', or '' when no names are given."""
    names = list(names)
    return HINT_SUFFIX.format(names=", ".join(names)) if names else ""


def enrich_prompt(prompt: str, names: list[str]) -> str:
    """Append ' [Detected: a, b, c]'; identity when no names are given.

    Not idempotent by design: calling twice appends twice.
    """
    if not prompt:
        raise ValueError("prompt must be nonempty")
    return prompt + hint_suffix(names)
