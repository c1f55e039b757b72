"""medqakit: build extractive and yes/no QA training datasets from
structured biomedical abstracts via weak supervision, rule-based curation,
morphological augmentation, and staged fine-tuning manifests."""

__version__ = "0.1.0"

from .bm25 import Bm25Params, best_sentence, tokenize
from .corpus import (
    AbstractSection,
    DatasetSubsetId,
    Provenance,
    QAPair,
    Sentence,
    StructuredAbstract,
    YesNoInstance,
    normalize_answer,
    parse_abstract_record,
    segment_sentences,
)
from .covid import (
    CovidFilterPolicy,
    CurationCandidate,
    ParameterVocabulary,
    QuestionTemplate,
    build_artificial_pairs,
    covid_filter,
    extract_conclusion_section,
    extract_question,
    export_review_queue,
    import_review_queue,
    instantiate_templates,
)
from .errors import ConfigError, ContractViolation, ParseError, ValidationError
from .metrics import EvalReport, Prediction, evaluate, exact_match, token_f1
from .morph import (
    Decomposition,
    LemmaLexicon,
    MorphemeEntry,
    MorphemeLexicon,
    MorphemeType,
    TransformChain,
    TransformKind,
    TransformSpec,
    TransformTarget,
    apply_chain,
    decompose,
    default_lemma_lexicon,
    default_morpheme_lexicon,
    lemmatize_token,
    load_lemma_lexicon,
    load_morpheme_lexicon,
    meanings_of,
    transform_dataset,
)
from .schedule import (
    FoldSpec,
    Schedule,
    SplitSpec,
    StageSpec,
    TargetSplit,
    builtin_schedules,
    emit_schedule,
    make_folds,
    make_target_split,
)
from .weak_label import (
    SourceInstance,
    WeakLabelRecord,
    build_prime_subset,
    select_answer_sentence,
    weak_label,
)
