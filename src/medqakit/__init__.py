"""medqakit: build extractive and yes/no QA training datasets from
structured biomedical abstracts via weak supervision, rule-based curation,
morphological augmentation, and staged fine-tuning manifests.

`import medqakit` loads no submodule: each name below is imported from its
module on first use (PEP 562), so a command pays only for what it runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The names the package exports, by the module each comes from.
_EXPORTS = {
    "bm25": "Bm25Params best_sentence tokenize",
    "corpus": "AbstractSection DatasetSubsetId Provenance QAPair Sentence StructuredAbstract"
    " YesNoInstance normalize_answer parse_abstract_record segment_sentences",
    "covid": "CovidFilterPolicy CurationCandidate ParameterVocabulary QuestionTemplate"
    " build_artificial_pairs covid_filter extract_conclusion_section extract_question"
    " export_review_queue import_review_queue instantiate_templates",
    "errors": "ConfigError ContractViolation ParseError ValidationError",
    "metrics": "EvalReport Prediction evaluate exact_match token_f1",
    "morph": "Decomposition LemmaLexicon MorphemeEntry MorphemeLexicon MorphemeType"
    " TransformChain TransformKind TransformSpec TransformTarget decompose"
    " default_lemma_lexicon default_morpheme_lexicon lemmatize_token load_lemma_lexicon"
    " load_morpheme_lexicon meanings_of transform_dataset",
    "schedule": "FoldSpec Schedule SplitSpec StageSpec TargetSplit emit_schedule make_folds"
    " make_target_split",
    "weak_label": "SourceInstance WeakLabelRecord build_prime_subset select_answer_sentence"
    " weak_label",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The import system binds each submodule it loads as an attribute of
    its package. The eager package bound the function `weak_label` over its
    submodule of that name; this keeps that binding once the submodule loads."""

    def __setattr__(self, name: str, value) -> None:
        if name == "weak_label" and isinstance(value, types.ModuleType):
            value = value.weak_label
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
