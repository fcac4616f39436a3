"""Tests for query tokenization, classification, and prompt composition."""

import json

import pytest
from hypothesis import given, strategies as st
from oracles import classify_by_category

from medserve.config import packaged_data
from medserve.query_pipeline import (
    DEFAULT_CATEGORY,
    TIE_BREAK_ORDER,
    ClassifiedQuery,
    KeywordLexicon,
    LexiconError,
    MedicalCategory,
    PromptTemplate,
    build_prompt,
    classify,
    load_lexicon,
    load_templates,
    prompt_token_count,
    tokenize,
)

CATS = list(MedicalCategory)


def make_lexicon(**overrides):
    base = {c: frozenset({f"kw_{c.value}"}) for c in CATS}
    for name, words in overrides.items():
        base[MedicalCategory(name)] = frozenset(words)
    return KeywordLexicon(base)


class TestTokenize:
    def test_strips_punctuation_and_lowercases(self):
        assert tokenize("Chest pain, dizzy!") == ["chest", "pain", "dizzy"]

    def test_empty(self):
        assert tokenize("") == []

    def test_duplicates_kept(self):
        assert tokenize("Aspirin aspirin") == ["aspirin", "aspirin"]

    def test_deterministic(self):
        text = "What! is... the-dose; of IBUPROFEN 200mg?"
        assert tokenize(text) == tokenize(text)


class TestClassify:
    def test_duplicate_tokens_each_count(self):
        lex = make_lexicon(medication={"ibuprofen", "dose"})
        result = classify("ibuprofen dose dose", lex)
        assert result.category is MedicalCategory.MEDICATION
        assert result.scores[MedicalCategory.MEDICATION] == 3
        assert all(result.scores[c] == 0 for c in CATS if c is not MedicalCategory.MEDICATION)

    def test_zero_scores_default_to_diagnosis(self):
        lex = make_lexicon()
        result = classify("nothing matches here", lex)
        assert result.category is DEFAULT_CATEGORY
        assert all(v == 0 for v in result.scores.values())

    def test_tie_prefers_emergency(self):
        lex = make_lexicon(
            emergency={"chest", "pain"}, medication={"aspirin", "dose"}
        )
        result = classify("chest pain aspirin dose", lex)
        assert result.scores[MedicalCategory.EMERGENCY] == 2
        assert result.scores[MedicalCategory.MEDICATION] == 2
        assert result.category is MedicalCategory.EMERGENCY

    def test_pure_function_of_tokens(self):
        lex = make_lexicon(treatment={"therapy"})
        a = classify("Therapy, THERAPY", lex)
        b = classify("therapy therapy", lex)
        assert a.scores == b.scores and a.category == b.category

    @given(
        tokens=st.lists(st.sampled_from("abcdefghij"), max_size=30),
        lexicon_words=st.dictionaries(
            st.sampled_from([c.value for c in CATS]),
            st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=8),
        ),
    )
    def test_scores_match_brute_force(self, tokens, lexicon_words):
        keywords = {
            c: frozenset(lexicon_words.get(c.value, {f"kw_{c.value}"})) for c in CATS
        }
        lex = KeywordLexicon(keywords)
        result = classify(" ".join(tokens), lex)
        for cat in CATS:
            expected = 0
            for tok in tokens:
                for kw in keywords[cat]:
                    if tok == kw:
                        expected += 1
            assert result.scores[cat] == expected

    @given(scores=st.lists(st.integers(0, 5), min_size=5, max_size=5))
    def test_tie_break_total(self, scores):
        # Build a lexicon/query realizing the score vector, via distinct tokens.
        keywords = {}
        words = []
        for cat, count in zip(CATS, scores):
            cat_words = {f"{cat.value}{i}" for i in range(max(count, 1))}
            keywords[cat] = frozenset(cat_words)
            words.extend(sorted(cat_words)[:count])
        result = classify(" ".join(words), KeywordLexicon(keywords))
        assert isinstance(result.category, MedicalCategory)
        best = max(result.scores.values())
        if best > 0:
            winners = [c for c in TIE_BREAK_ORDER if result.scores[c] == best]
            assert result.category is winners[0]

    @given(
        words=st.lists(st.sampled_from(["ab", "AB", "cd", "ef", "gh", "zz"]), max_size=20),
        separators=st.lists(st.sampled_from([" ", ", ", "!\n", "-"]), min_size=1),
        keywords=st.permutations(CATS).flatmap(lambda order: st.fixed_dictionaries({
            cat: st.sets(st.sampled_from(["ab", "cd", "ef", "gh", "Gh"]), min_size=1)
            for cat in order
        })),
    )
    def test_index_matches_per_category_counts(self, words, separators, keywords):
        # overlapping keyword sets, lexicon dicts in any category order,
        # mixed case and punctuation in the query
        text = "".join(w + separators[i % len(separators)] for i, w in enumerate(words))
        lex = KeywordLexicon(keywords)
        got, want = classify(text, lex), classify_by_category(text, lex)
        assert got == want
        assert list(got.scores) == list(want.scores) == CATS

    def test_monotonicity_of_private_keyword(self):
        lex = make_lexicon(prevention={"vaccine"})
        base = classify("some words", lex)
        more = classify("some words vaccine", lex)
        assert more.scores[MedicalCategory.PREVENTION] == base.scores[MedicalCategory.PREVENTION] + 1
        for cat in CATS:
            if cat is not MedicalCategory.PREVENTION:
                assert more.scores[cat] == base.scores[cat]


class TestBuildPrompt:
    def test_newline_concatenation(self):
        templates = PromptTemplate(base="B", suffixes={c: "" for c in CATS} | {
            MedicalCategory.EMERGENCY: "E"})
        q = ClassifiedQuery("q", ("q",), MedicalCategory.EMERGENCY, {c: 0 for c in CATS})
        assert build_prompt(q, templates) == "B\nE\nq"

    def test_empty_suffix(self):
        templates = PromptTemplate(base="B", suffixes={c: "" for c in CATS})
        q = ClassifiedQuery("q", ("q",), MedicalCategory.TREATMENT, {c: 0 for c in CATS})
        assert build_prompt(q, templates) == "B\n\nq"

    def test_missing_suffix_is_config_error(self):
        templates = PromptTemplate(base="B", suffixes={c: "" for c in CATS})
        object.__setattr__(templates, "suffixes",
                           {c: "" for c in CATS if c is not MedicalCategory.EMERGENCY})
        q = ClassifiedQuery("q", ("q",), MedicalCategory.EMERGENCY, {c: 0 for c in CATS})
        with pytest.raises(LexiconError):
            build_prompt(q, templates)

    @pytest.mark.parametrize("text", [
        "what dose of aspirin", "Chest\npain!!", "İstanbul ΣΑΣ straße 42x", "???",
        "a\r\nb\tc", "word" * 50,
    ])
    def test_prompt_token_count_packaged(self, text):
        templates = load_templates(packaged_data("templates.json"))
        for category in CATS:
            q = ClassifiedQuery(text, tuple(tokenize(text)), category, {})
            assert prompt_token_count(q, templates) == len(tokenize(build_prompt(q, templates)))

    @given(st.text(min_size=1), st.text(), st.text())
    def test_prompt_token_count_any_template(self, base, suffix, text):
        templates = PromptTemplate(base=base, suffixes={c: suffix for c in CATS})
        q = ClassifiedQuery(text, tuple(tokenize(text)), MedicalCategory.TREATMENT, {})
        assert prompt_token_count(q, templates) == len(tokenize(build_prompt(q, templates)))

    def test_packaged_emergency_suffix_mentions_urgency(self):
        templates = load_templates(packaged_data("templates.json"))
        suffix = templates.suffixes[MedicalCategory.EMERGENCY].lower()
        assert "time-critical" in suffix or "urgen" in suffix
        assert "step" in suffix


class TestLoadFixtures:
    def test_packaged_lexicon_has_five_categories(self):
        lex = load_lexicon(packaged_data("lexicon.json"))
        assert set(lex.keywords) == set(CATS)
        assert all(lex.keywords[c] for c in CATS)

    def test_missing_category_rejected(self, tmp_path):
        doc = {c.value: ["word"] for c in CATS if c is not MedicalCategory.PREVENTION}
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LexiconError, match="prevention"):
            load_lexicon(path)

    def test_duplicate_keywords_deduplicated(self, tmp_path):
        doc = {c.value: ["word"] for c in CATS}
        doc["medication"] = ["Aspirin", "aspirin", "dose"]
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(doc))
        lex = load_lexicon(path)
        assert lex.keywords[MedicalCategory.MEDICATION] == frozenset({"aspirin", "dose"})

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(LexiconError, match="invalid JSON"):
            load_lexicon(path)

    def test_empty_category_rejected(self, tmp_path):
        doc = {c.value: ["word"] for c in CATS}
        doc["treatment"] = []
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LexiconError, match="treatment"):
            load_lexicon(path)

    @pytest.mark.parametrize("loader, doc, fault", [
        (load_lexicon, {c.value: ["word"] for c in CATS} | {"medication": ["dose", 5]},
         "key 'medication': 5 is not a JSON string"),
        (load_lexicon, {c.value: ["word"] for c in CATS} | {"surgery": ["knife"]},
         "'surgery' is not a valid MedicalCategory"),
        (load_lexicon, [["medication", "dose"]], "is not a JSON object"),
        (load_templates, {"suffixes": {c.value: "" for c in CATS}},
         "templates file has no 'base'"),
        (load_templates, {"base": "B", "suffixes": {c.value: 5 for c in CATS}},
         "templates file 'suffixes': key 'medication': 5 is not a JSON string"),
        (load_templates, {"base": 7, "suffixes": {c.value: "" for c in CATS}},
         "templates file 'base': 7 is not a JSON string"),
    ])
    def test_mistyped_file_names_file_and_key(self, tmp_path, loader, doc, fault):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LexiconError) as info:
            loader(path)
        assert str(info.value).startswith(f"{path}: ")
        assert fault in str(info.value)
