"""The demo's data: a synthetic labeled corpus and toy predictions for it.

``spanmine demo`` writes both, then runs the same subcommands as the
README's command lines on them, in order, with the same checks.

The corpus is generated from a seeded RNG (license-free, ~200 short
documents). Each document plants a few rare concept phrases that both
serve as present keyphrases and give the miner something discriminative
to find; absent keyphrases use words reserved away from the document.
"""

from __future__ import annotations

import random

from .corpus import Document

DEMO_SEED = 20160

# Content words combine into concept phrases; fillers pad sentences out.
# No two words of the two pools share a stem (tests/test_corpus.py checks
# it), so planted "absent" phrases can never sneak into a document via a
# shared stem.
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


def generate_demo_corpus(n_docs: int = 200, seed: int = DEMO_SEED) -> list[Document]:
    """Deterministically generate a small labeled corpus."""
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

