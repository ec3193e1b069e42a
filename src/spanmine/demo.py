"""Self-contained demo: generate a synthetic labeled corpus, run every
pipeline stage on it, and score toy predictions.

The corpus is generated from a seeded RNG (license-free, ~200 short
documents). Each document plants a few rare concept phrases that both
serve as present keyphrases and give the miner something discriminative
to find; absent keyphrases use words reserved away from the document.
"""

from __future__ import annotations

import logging
import random
import time
from pathlib import Path

from . import analysis
from .bm25 import build_index, load_index, save_index
from .corpus import Document, dataset_stats, load_corpus, model_input, write_corpus
from .corruption import OBJECTIVES, SPAN_OBJECTIVES, CorruptionConfig, gen_corpus
from .evaluation import evaluate_file
from .miner import DEFAULT_THRESHOLDS, load_spans, mine_corpus
from .porter import stem

logger = logging.getLogger(__name__)

DEMO_SEED = 20160

# Content words combine into concept phrases; fillers pad sentences out.
# The two pools are checked stem-disjoint so planted "absent" phrases can
# never sneak into a document via a shared stem.
_CONTENT = """
adaptive kernel spectral gradient sparse convex lattice manifold entropy
quantum photonic symbolic bayesian markov stochastic convolution attention
recurrent embedding clustering parsing segmentation alignment translation
regression calibration distillation pruning scheduling routing consensus
replication sharding encryption authentication synthesis compilation
interpolation factorization decomposition projection diffusion propagation
oscillation resonance turbulence viscosity elasticity conductance impedance
throughput latency bandwidth congestion fairness robustness stability
convergence monotonicity locality causality anomaly outlier drift skew
variance kurtosis likelihood posterior momentum annealing tempering
lexicon ontology taxonomy workflow benchmark ablation fidelity coverage
relevance novelty redundancy coherence fluency syntax semantics morphology
prosody discourse dialogue wavelet tensor polytope geodesic curvature
isomorphism homology cohomology fibration monad functor bisimulation
automaton grammar codec checksum quorum gossip heartbeat failover
backpressure watermark snapshot journal ledger merkle trie bloom cuckoo
hashing caching paging prefetch pipeline superscalar speculative hazard
interconnect crossbar mesh torus hypercube phonon exciton magnon
plasmon soliton vortex percolation qubit decoherence teleportation
""".split()

_FILLER = """
method results approach study system model data analysis experiments
framework technique problem paper work performance section evaluation
design implementation comparison discussion literature survey setting
measurement observation hypothesis conclusion improvement limitation
""".split()

_TEMPLATES = (
    "We present a {c} based {f} for large scale {f}.",
    "The proposed {c} improves the {f} over strong baselines by 12 points.",
    "Our {f} relies on {c} and a novel {c2} scheme introduced in 2019.",
    "Experiments on 3 datasets show that {c} is robust to noisy {f}.",
    "A detailed {f} of {c} reveals surprising connections to {c2}.",
    "In contrast to prior {f}, the {c} requires no supervision.",
    "We analyze the {f} of {c} under distribution shift and 10-fold validation.",
)


def _check_pools() -> None:
    stems: dict[str, str] = {}
    for word in _CONTENT + _FILLER:
        s = stem(word)
        if s in stems and stems[s] != word:
            raise AssertionError(f"demo vocabulary not stem-disjoint: {word} vs {stems[s]}")
        stems[s] = word


def generate_demo_corpus(n_docs: int = 200, seed: int = DEMO_SEED) -> list[Document]:
    """Deterministically generate a small labeled corpus."""
    _check_pools()
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        words = rng.sample(_CONTENT, 10)
        concepts = [
            f"{words[0]} {words[1]}",
            f"{words[2]} {words[3]} {words[4]}",
            words[5],
            f"{words[6]} {words[7]}",
        ]
        absent = [f"{words[8]} {words[9]}"]
        title = f"{concepts[0].title()} for {rng.choice(_FILLER)} {rng.choice(_FILLER)}"
        sentences = []
        for concept in concepts[1:]:
            template = rng.choice(_TEMPLATES)
            sentences.append(
                template.format(
                    c=concept,
                    c2=rng.choice(concepts),
                    f=rng.choice(_FILLER),
                )
            )
        rng.shuffle(sentences)
        sentences.insert(0, f"This paper studies {concepts[0]} in the context of {rng.choice(_FILLER)}.")
        docs.append(
            Document(
                id=f"demo-{i:04d}",
                title=title,
                body=" ".join(sentences),
                keyphrases=tuple(concepts + absent),
            )
        )
    return docs


def generate_demo_predictions(docs: list[Document], seed: int = DEMO_SEED) -> list[str]:
    """Toy predictions: part of the gold, a duplicate, and a distractor."""
    rng = random.Random(seed + 1)
    lines = []
    for doc in docs:
        gold = list(doc.keyphrases or ())
        picks = [gold[0], gold[2], gold[0], gold[-1]]
        picks.append(f"{rng.choice(_CONTENT)} {rng.choice(_FILLER)}")
        if rng.random() < 0.5:
            picks.insert(1, rng.choice(_FILLER))
        lines.append(" ; ".join(picks))
    return lines


def run_demo(out_dir, seed: int = DEMO_SEED, threads: int = 1, n_docs: int = 200) -> dict:
    """Run the full pipeline on the synthetic corpus; return a summary dict.

    Every stage writes into ``out_dir``; reruns with the same seed produce
    byte-identical artifacts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    corpus_path = out / "corpus.jsonl"
    preds_path = out / "predictions.txt"
    docs = generate_demo_corpus(n_docs=n_docs, seed=seed)
    write_corpus(docs, corpus_path)
    preds_path.write_text("\n".join(generate_demo_predictions(docs, seed=seed)) + "\n", encoding="utf-8")

    loaded = list(load_corpus(corpus_path))
    stats = dataset_stats(loaded)

    tokenized = [model_input(doc) for doc in loaded]
    index = build_index(tokenized)
    index_path = out / "index.spmi"
    save_index(index, index_path)
    index = load_index(index_path)

    thresholds = DEFAULT_THRESHOLDS.scaled_to(len(loaded))
    spans_path = out / "spans.jsonl"
    mining = mine_corpus(tokenized, index, spans_path, thresholds=thresholds, workers=threads)
    spans_by_id = load_spans(spans_path)

    corruption_summaries = {}
    for objective in OBJECTIVES:
        cfg = CorruptionConfig(objective=objective, seed=seed)
        target = out / f"corrupt_{objective.replace('-', '_')}.jsonl"
        summary = gen_corpus(
            tokenized,
            spans_by_id if objective in SPAN_OBJECTIVES else None,
            cfg,
            target,
            workers=threads,
        )
        corruption_summaries[objective] = summary.to_dict()

    report = evaluate_file(preds_path, loaded, report_path=out / "eval_report.json")

    success = analysis.retrieval_success(loaded, index, k=20)
    overlap = analysis.overlap_metrics(loaded, spans_by_id)
    span_stats = analysis.span_characteristics(spans_by_id)

    return {
        "out_dir": str(out),
        "seed": seed,
        "elapsed_sec": round(time.perf_counter() - started, 3),
        "artifacts": sorted(p.name for p in out.iterdir()),
        "corpus_stats": vars(stats).copy(),
        "mining": {
            "docs_processed": mining.docs_processed,
            "avg_spans_per_doc": mining.avg_spans_per_doc,
            "length_distribution": {str(n): f for n, f in mining.length_distribution.items()},
        },
        "corruption": corruption_summaries,
        "evaluation": report.to_dict(include_per_doc=False),
        "analysis": {
            "retrieval_success": success.to_dict(),
            "overlap": overlap.to_dict(),
            "span_characteristics": span_stats.to_dict(),
        },
    }
