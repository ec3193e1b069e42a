"""spanmine: salient-span mining, denoising corpus generation, and keyphrase scoring.

The toolkit covers the non-neural half of a keyphrase-generation pipeline:

- ingest JSONL corpora and normalize/tokenize them deterministically,
- build an Okapi BM25 inverted index and compute per-query rank statistics,
- mine salient spans (n-grams that retrieve their own document well),
- corrupt documents into (source, target) pairs for denoising objectives,
- evaluate keyphrase predictions with stemmed present/absent F1@5 / F1@M.
"""

__version__ = "0.1.0"

from .bm25 import build_index, load_index, save_index
from .corpus import (
    Document,
    TokenizedDoc,
    dataset_stats,
    load_corpus,
    model_input,
    write_corpus,
)
from .corruption import (
    CorruptionConfig,
    apply_delete,
    apply_mask,
    build_ssp_target,
    gen_corpus,
    plan_corruption,
)
from .errors import DataError
from .evaluation import (
    Phrase,
    evaluate,
    evaluate_file,
    keyphrase_set,
    parse_predictions,
    split_present_absent,
)
from .miner import (
    DEFAULT_THRESHOLDS,
    SalientSpan,
    ThresholdFn,
    load_spans,
    mine_corpus,
)
from .stopwords import load_stoplist
