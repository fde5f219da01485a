"""Bit-identity of every seeded data stream.

Calibration sets, evaluation splits, task suites and the zoo's training
stream all come from :meth:`MarkovGrammar.sample` and
:meth:`MarkovGrammar.continue_sequence`, so every golden and every
perplexity downstream rests on their exact output.  Two guards:

* an oracle: the per-token numpy loop the samplers ran before their
  tables moved to Python lists, which must give the same words from the
  same generator and leave it in the same state;
* SHA-256 pins of the streams the experiments and the end-to-end
  benchmark consume.
"""

import hashlib

import numpy as np
import pytest

from repro.data.calibration import sample_calibration
from repro.data.corpus import c4_domains, c4_sim, wikitext2_sim
from repro.data.grammar import MarkovGrammar
from repro.data.tasks import standard_task_suites

# ---------------------------------------------------------------------------
# Oracle: the former per-token loop.


def _reference_word(grammar, c, u):
    probs = grammar.class_emission[c]
    cumulative = np.cumsum(probs)
    index = min(int(np.searchsorted(cumulative, u)), probs.size - 1)
    return int(grammar.class_words[c][index])


def _reference_branch(grammar, u):
    cumulative = np.cumsum(grammar._branch_probs)
    return min(int(np.searchsorted(cumulative, u)), grammar.branching - 1)


def _reference_row(grammar, context):
    return grammar._successor_classes[grammar._context_index(context)]


def reference_sample(grammar, n_tokens, rng, start=None):
    if start is None:
        context = (
            int(rng.integers(grammar.n_words)),
            int(rng.integers(grammar.n_words)),
        )
    else:
        context = (int(start[0]), int(start[1]))
    out = np.empty(n_tokens, dtype=np.int64)
    branch_u = rng.random(n_tokens)
    emit_u = rng.random(n_tokens)
    smooth_u = rng.random(n_tokens)
    smooth_words = rng.integers(grammar.n_words, size=n_tokens)
    for index in range(n_tokens):
        if smooth_u[index] < grammar.smoothing:
            word = int(smooth_words[index])
        else:
            row = _reference_row(grammar, context)
            branch = _reference_branch(grammar, branch_u[index])
            word = _reference_word(grammar, int(row[branch]), emit_u[index])
        out[index] = word
        context = (context[1], word)
    return out


def reference_continue(grammar, context_words, length, rng, low_probability):
    context = (int(context_words[-2]), int(context_words[-1]))
    out = np.empty(length, dtype=np.int64)
    for index in range(length):
        row = _reference_row(grammar, context)
        if low_probability:
            members = grammar.class_words[int(row[-1])]
            tail = members[members.size // 2 :]
            word = int(tail[rng.integers(tail.size)])
        else:
            branch = _reference_branch(grammar, rng.random())
            word = _reference_word(grammar, int(row[branch]), rng.random())
        out[index] = word
        context = (context[1], word)
    return out


def _boundaries(cumulative):
    """Draws on each cumulative value and one ulp either side of it, plus
    0 and the largest draw below 1 (past a cumulative sum that rounds
    below 1, where the clamp picks the last entry)."""
    for value in cumulative:
        yield float(value)
        yield float(np.nextafter(value, 0.0))
        yield float(np.nextafter(value, 2.0))
    yield 0.0
    yield float(np.nextafter(1.0, 0.0))


class _ScriptedRng:
    """Replays given ``random(n)`` and ``integers(high, size=n)`` arrays."""

    def __init__(self, floats, ints):
        self._floats = list(floats)
        self._ints = list(ints)

    def random(self, size):
        return np.asarray(self._floats.pop(0)[:size], dtype=np.float64)

    def integers(self, high, size):
        return np.asarray(self._ints.pop(0)[:size], dtype=np.int64)


# ---------------------------------------------------------------------------
# Grammars under test: every domain a standard corpus mixes, plus a small
# grammar with heavy smoothing at both extremes of ``branching``.

_GRAMMARS = {
    **{f"c4-domain{i}": (lambda i=i: c4_domains()[i]) for i in range(4)},
    "wikitext-unseen": lambda: wikitext2_sim().grammars[1],
    "smooth-branching1": lambda: MarkovGrammar(
        12, branching=1, smoothing=0.4, seed=3, n_classes=5
    ),
    "smooth-branching-all": lambda: MarkovGrammar(
        12, branching=5, smoothing=0.4, seed=3, n_classes=5
    ),
}


@pytest.fixture(scope="module", params=sorted(_GRAMMARS))
def grammar(request):
    return _GRAMMARS[request.param]()


def _assert_same_stream(got, expected, rng_got, rng_expected):
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    # The generator is left exactly where the former loop left it.
    assert rng_got.random() == rng_expected.random()


class TestSampleMatchesReferenceLoop:
    @pytest.mark.parametrize("n_tokens", [1, 2, 3, 257, 5000])
    @pytest.mark.parametrize("start", [None, (5, 3), (0, 0)])
    def test_same_words_and_generator_state(self, grammar, n_tokens, start):
        rng_got = np.random.default_rng([n_tokens, 17])
        rng_expected = np.random.default_rng([n_tokens, 17])
        got = grammar.sample(n_tokens, rng=rng_got, start=start)
        expected = reference_sample(grammar, n_tokens, rng_expected, start)
        _assert_same_stream(got, expected, rng_got, rng_expected)

    def test_default_generator_is_the_grammar_seed(self, grammar):
        got = grammar.sample(300)
        expected = reference_sample(
            grammar, 300, np.random.default_rng(grammar.seed)
        )
        assert np.array_equal(got, expected)

    def test_lookups_match_searchsorted_at_every_boundary(self, grammar):
        branch_cumulative = np.cumsum(grammar._branch_probs)
        for u in _boundaries(branch_cumulative):
            assert grammar._branch(u) == _reference_branch(grammar, u)
        for c in range(grammar.n_classes):
            for u in _boundaries(np.cumsum(grammar.class_emission[c])):
                assert grammar._emit(c, u) == _reference_word(grammar, c, u)

    def test_boundary_draws_through_the_whole_loop(self, grammar):
        # Every boundary as a branch and an emission draw, and smoothing
        # draws exactly at, just below and just above the threshold.
        draws = list(_boundaries(np.cumsum(grammar._branch_probs)))
        for probs in grammar.class_emission:
            draws += _boundaries(np.cumsum(probs))
        n = len(draws)
        smooth = [grammar.smoothing, *_boundaries([grammar.smoothing])] * n
        script = (
            [draws, draws[::-1], smooth[:n]],
            [np.arange(n) % grammar.n_words],
        )
        got = grammar.sample(n, rng=_ScriptedRng(*script), start=(5, 3))
        expected = reference_sample(grammar, n, _ScriptedRng(*script), (5, 3))
        assert np.array_equal(got, expected)


class TestContinueMatchesReferenceLoop:
    @pytest.mark.parametrize("low_probability", [False, True])
    @pytest.mark.parametrize("length", [1, 6, 64])
    def test_same_words_and_generator_state(
        self, grammar, low_probability, length
    ):
        for trial in range(4):
            context = grammar.sample(
                3 + trial, rng=np.random.default_rng(trial)
            )
            rng_got = np.random.default_rng([trial, length])
            rng_expected = np.random.default_rng([trial, length])
            got = grammar.continue_sequence(
                context, length, rng_got, low_probability=low_probability
            )
            expected = reference_continue(
                grammar, context, length, rng_expected, low_probability
            )
            _assert_same_stream(got, expected, rng_got, rng_expected)


# ---------------------------------------------------------------------------
# Golden digests, recorded before the samplers' tables moved to lists.


def _digest(arrays) -> str:
    """SHA-256 over dtype, shape and bytes of each array, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


GOLDEN = {
    "c4-sim/train-200000": (
        "d3669779e6d85ce993f33d6ead61abfd"
        "e4cc58636629e112cfd0a09d96761f30"
    ),
    "c4-sim/test-8000": (
        "5b5990663cb6ad18c9df8410d7ebb716"
        "7a950918dbb364c3ee2797677f42dfdf"
    ),
    "wikitext2-sim/test-8000": (
        "43bd608ce511c6466a1c912cc60bff98"
        "8b213cf392fc08257cedc66ced3711cb"
    ),
    "c4-sim/calibration-16x64-seed1234": (
        "cb78c56a058c51ed8b3825f90dad8e32"
        "985355f53e38aafac57707759cef07e4"
    ),
    "c4-sim/hellaswag_sim-40": (
        "108bb158880e149f3f81d5b37125a4b3"
        "9af806ace6fba06060ecf50fed9b9086"
    ),
}


def stream_digests() -> dict[str, str]:
    """Digests of the streams the experiments and the e2e bench consume."""
    digests = {}
    # The zoo's pretraining stream (repro.models.zoo).
    train = c4_sim().splits(
        train_tokens=200_000, validation_tokens=1, test_tokens=1
    ).train
    digests["c4-sim/train-200000"] = _digest([train])
    for corpus in (c4_sim(), wikitext2_sim()):
        test = corpus.splits(
            train_tokens=1, validation_tokens=1, test_tokens=8000
        ).test
        digests[f"{corpus.name}/test-8000"] = _digest([test])
    corpus = c4_sim()
    calibration = sample_calibration(corpus, 16, 64, seed=1234)
    digests["c4-sim/calibration-16x64-seed1234"] = _digest(
        [calibration.segments]
    )
    suite = standard_task_suites(corpus, n_examples=40)[1]
    digests[f"c4-sim/{suite.name}-40"] = _digest(
        array
        for example in suite.examples
        for array in (
            example.context, *example.choices, np.array([example.answer])
        )
    )
    return digests


def test_stream_digests_match_golden():
    assert stream_digests() == GOLDEN


if __name__ == "__main__":
    for key, value in stream_digests().items():
        print(f'    "{key}": "{value}",')
