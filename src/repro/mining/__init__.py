"""Downstream web usage mining on reconstructed sessions.

The paper motivates session reconstruction as the *input* step for pattern
discovery: "discovering useful patterns from these sessions by using
pattern discovery techniques like apriori" (§1), with applications in
pre-fetching, link prediction, site reorganization and personalization.
This package implements the pattern miners and the pre-fetching
predictor, which also power the ``bench_downstream_mining`` extension
benchmark (how much do reconstruction errors distort the mined patterns?):

* :mod:`repro.mining.apriori` — frequent page-set mining;
* :mod:`repro.mining.sequential` — frequent contiguous navigation patterns;
* :mod:`repro.mining.prediction` — a Markov next-page recommender for
  pre-fetching / link prediction.
"""

from repro.mining.apriori import FrequentItemset, apriori
from repro.mining.prediction import KthOrderMarkovPredictor, MarkovPredictor
from repro.mining.sequential import SequentialPattern, frequent_sequences

__all__ = [
    "apriori",
    "FrequentItemset",
    "frequent_sequences",
    "SequentialPattern",
    "MarkovPredictor",
    "KthOrderMarkovPredictor",
]
