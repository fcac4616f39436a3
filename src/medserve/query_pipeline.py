"""Keyword-based routing of medical questions into five service categories.

Incoming question text is normalized to lowercase word tokens, scored against
a per-category keyword lexicon, and routed to the best-matching category.
Category-specific prompt suffixes are then appended to a shared professional
base prompt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .jsonio import read_file, typed, typed_fields


class MedicalCategory(Enum):
    MEDICATION = "medication"
    DIAGNOSIS = "diagnosis"
    TREATMENT = "treatment"
    PREVENTION = "prevention"
    EMERGENCY = "emergency"


_CATEGORIES = tuple(MedicalCategory)

# Ties are resolved by this fixed priority: time-critical routing first,
# then the order in which a wrong answer is most costly.
TIE_BREAK_ORDER = (
    MedicalCategory.EMERGENCY,
    MedicalCategory.MEDICATION,
    MedicalCategory.DIAGNOSIS,
    MedicalCategory.TREATMENT,
    MedicalCategory.PREVENTION,
)

# Queries matching no keyword at all fall back to the most general category.
DEFAULT_CATEGORY = MedicalCategory.DIAGNOSIS

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class LexiconError(ValueError):
    """Raised when a keyword lexicon or template file is invalid."""


@dataclass(frozen=True)
class KeywordLexicon:
    """Per-category keyword sets; keywords are lowercase, sets may overlap.

    `index` maps each keyword to the categories that list it, in
    MedicalCategory order; it is built once, from `keywords`.
    """

    keywords: dict[MedicalCategory, frozenset[str]]
    index: dict[str, tuple[MedicalCategory, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [c for c in MedicalCategory if c not in self.keywords]
        if missing:
            raise LexiconError(f"lexicon missing categories: {[c.value for c in missing]}")
        for cat, words in self.keywords.items():
            if not words:
                raise LexiconError(f"lexicon category {cat.value!r} has no keywords")
        index: dict[str, tuple[MedicalCategory, ...]] = {}
        for cat in _CATEGORIES:
            for word in self.keywords[cat]:
                index[word] = index.get(word, ()) + (cat,)
        object.__setattr__(self, "index", index)


@dataclass(frozen=True)
class PromptTemplate:
    """Shared base prompt plus one suffix per category (suffix may be empty).

    `token_counts` maps each category to the number of tokens build_prompt
    adds to a query's; it is built once, from `base` and `suffixes`.
    """

    base: str
    suffixes: dict[MedicalCategory, str]
    token_counts: dict[MedicalCategory, int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.base:
            raise LexiconError("prompt template base must be non-empty")
        missing = [c for c in MedicalCategory if c not in self.suffixes]
        if missing:
            raise LexiconError(f"templates missing categories: {[c.value for c in missing]}")
        # build_prompt joins its parts with newlines, which no token spans
        object.__setattr__(self, "token_counts", {
            cat: len(tokenize(f"{self.base}\n{suffix}"))
            for cat, suffix in self.suffixes.items()
        })


@dataclass(frozen=True)
class ClassifiedQuery:
    raw: str
    tokens: tuple[str, ...]
    category: MedicalCategory
    scores: dict[MedicalCategory, int]


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace; duplicates kept."""
    return _TOKEN_RE.findall(text.lower())


def classify(query: str, lexicon: KeywordLexicon) -> ClassifiedQuery:
    """Route a query to the category with the highest keyword-match count.

    Each token occurrence contributes one point to every category whose
    keyword set contains it. Ties follow TIE_BREAK_ORDER; an all-zero score
    vector falls back to DEFAULT_CATEGORY.
    """
    tokens = tuple(tokenize(query))
    scores = dict.fromkeys(_CATEGORIES, 0)
    index = lexicon.index
    for tok in tokens:
        for cat in index.get(tok, ()):
            scores[cat] += 1
    best = max(scores.values())
    if best == 0:
        category = DEFAULT_CATEGORY
    else:
        category = next(c for c in TIE_BREAK_ORDER if scores[c] == best)
    return ClassifiedQuery(raw=query, tokens=tokens, category=category, scores=scores)


def build_prompt(classified: ClassifiedQuery, templates: PromptTemplate) -> str:
    """Concatenate base prompt, category suffix, and the raw query text.

    Parts are joined with single newlines; byte-deterministic for fixed
    inputs.
    """
    if classified.category not in templates.suffixes:
        raise LexiconError(f"no suffix configured for category {classified.category.value!r}")
    suffix = templates.suffixes[classified.category]
    return f"{templates.base}\n{suffix}\n{classified.raw}"


def prompt_token_count(classified: ClassifiedQuery, templates: PromptTemplate) -> int:
    """len(tokenize(build_prompt(classified, templates))), from the query's
    tokens, without building or tokenizing the prompt."""
    return templates.token_counts[classified.category] + len(classified.tokens)


def load_lexicon(path) -> KeywordLexicon:
    """Load and validate a keyword lexicon from a JSON file.

    Schema: {"<category>": ["keyword", ...], ...} with all five categories
    present. Keywords are lowercased and deduplicated. Any fault raises
    LexiconError naming the file.
    """
    raw = read_file(path, LexiconError)
    try:
        return KeywordLexicon({
            MedicalCategory(cat): frozenset(word.lower() for word in words)
            for cat, words in typed(raw, dict[str, list[str]]).items()
        })
    except ValueError as exc:
        raise LexiconError(f"{path}: {exc}") from None


def load_templates(path) -> PromptTemplate:
    """Load prompt templates from a JSON file.

    Schema: {"base": "...", "suffixes": {"<category>": "...", ...}}. Any
    fault raises LexiconError naming the file.
    """
    raw = read_file(path, LexiconError)
    try:
        typed_fields(raw, {"base": str, "suffixes": dict[str, str]}, "templates file")
        return PromptTemplate(base=raw["base"], suffixes={
            MedicalCategory(cat): text for cat, text in raw["suffixes"].items()
        })
    except ValueError as exc:
        raise LexiconError(f"{path}: {exc}") from None
