"""spanmine: salient-span mining, denoising corpus generation, and keyphrase scoring.

The toolkit covers the non-neural half of a keyphrase-generation pipeline:

- ingest JSONL corpora and normalize/tokenize them deterministically,
- build an Okapi BM25 inverted index and compute per-query rank statistics,
- mine salient spans (n-grams that retrieve their own document well),
- corrupt documents into (source, target) pairs for denoising objectives,
- evaluate keyphrase predictions with stemmed present/absent F1@5 / F1@M.
"""

__version__ = "0.1.0"

from .bm25 import BM25Index, PostingList, Query, build_index, load_index, save_index
from .corpus import (
    CorpusStats,
    Document,
    TokenizedDoc,
    dataset_stats,
    load_corpus,
    model_input,
    normalize,
    tokenize,
    write_corpus,
)
from .corruption import (
    CorruptionConfig,
    CorruptionExample,
    apply_delete,
    apply_mask,
    build_example,
    build_ssp_target,
    gen_corpus,
    plan_corruption,
)
from .errors import (
    AlignmentError,
    ChecksumError,
    CorpusFormatError,
    DataError,
    DuplicateIdError,
    IndexFormatError,
    SkipDocument,
    SpanmineError,
)
from .evaluation import (
    EvalReport,
    KeyphraseSet,
    evaluate,
    evaluate_file,
    f1_at_k,
    f1_at_m,
    keyphrase_set,
    parse_predictions,
    split_present_absent,
    stem_phrase,
)
from .miner import (
    DEFAULT_THRESHOLDS,
    CandidateSpan,
    SalientSpan,
    ThresholdFn,
    candidates,
    load_spans,
    mine,
    mine_corpus,
    parse_thresholds,
)
from .porter import stem
from .stopwords import DEFAULT_STOPWORDS, load_stoplist
