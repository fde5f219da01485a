"""Data substrate: synthetic corpora, tokenizers and zero-shot tasks.

The paper calibrates on C4 and evaluates on C4, WikiText-2 and five
zero-shot multiple-choice suites.  None of those datasets are available
offline, so this package provides seeded synthetic equivalents:

* :mod:`repro.data.grammar` — order-2 Markov "grammars" over a lexicon of
  pronounceable words; these give the stand-in models genuine predictive
  structure to learn (and quantization something to destroy).
* :mod:`repro.data.corpus` — the ``c4-sim`` multi-domain mixture and the
  narrower ``wikitext2-sim`` corpus, with train/validation/test splits.
* :mod:`repro.data.tokenizer` — the word-level tokenizer the experiments
  use.
* :mod:`repro.data.calibration` — the 128-segment calibration sampler that
  mirrors the paper's protocol.
* :mod:`repro.data.tasks` — synthetic PIQA / HellaSwag / ARC-E / ARC-C /
  WinoGrande-style multiple-choice suites with graded difficulty.
"""

from repro.data.grammar import MarkovGrammar
from repro.data.tokenizer import WordTokenizer, build_lexicon
from repro.data.corpus import CorpusSplits, SyntheticCorpus, c4_sim, wikitext2_sim
from repro.data.calibration import CalibrationSet, sample_calibration
from repro.data.tasks import (
    MultipleChoiceExample,
    TaskSuite,
    build_task_suite,
    standard_task_suites,
)

__all__ = [
    "MarkovGrammar",
    "WordTokenizer",
    "build_lexicon",
    "CorpusSplits",
    "SyntheticCorpus",
    "c4_sim",
    "wikitext2_sim",
    "CalibrationSet",
    "sample_calibration",
    "MultipleChoiceExample",
    "TaskSuite",
    "build_task_suite",
    "standard_task_suites",
]
