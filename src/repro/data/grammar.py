"""Seeded class-structured Markov grammars over integer word ids.

Each grammar mimics natural-language statistics at small scale: every word
belongs to a latent class (think part-of-speech), class sequences follow a
sparse order-2 Markov process with Zipfian branch probabilities, and each
class emits its member words with a Zipfian distribution.  The factored
structure — ``p(w_t | w_{t-2}, w_{t-1}) = p(c_t | c_{t-2}, c_{t-1}) ·
p(w_t | c_t)`` — is low-rank and therefore *learnable* by a tiny
transformer, unlike an unstructured random transition table which would
demand pure memorisation.

The grammars serve three roles:

1. training corpora for the stand-in models (:mod:`repro.data.corpus`);
2. ground-truth likelihoods for building multiple-choice distractors
   (:mod:`repro.data.tasks`);
3. a difficulty knob — distractors that follow low-probability class
   branches of the *same* grammar are much harder to reject than random
   words.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

import numpy as np

__all__ = ["MarkovGrammar"]


def _zipf(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


class MarkovGrammar:
    """Class-factored order-2 Markov word source."""

    def __init__(
        self,
        n_words: int,
        branching: int = 6,
        zipf_exponent: float = 1.0,
        smoothing: float = 1e-3,
        seed: int = 0,
        n_classes: int = 14,
        class_seed: int | None = None,
    ) -> None:
        if n_words < 4:
            raise ValueError("n_words must be at least 4")
        if not 2 <= n_classes <= n_words:
            raise ValueError("n_classes must be in [2, n_words]")
        if not 1 <= branching <= n_classes:
            raise ValueError("branching must be in [1, n_classes]")
        if not 0.0 < smoothing < 1.0:
            raise ValueError("smoothing must be in (0, 1)")
        self.n_words = int(n_words)
        self.n_classes = int(n_classes)
        self.branching = int(branching)
        self.zipf_exponent = float(zipf_exponent)
        self.smoothing = float(smoothing)
        self.seed = int(seed)
        # Domains of one synthetic "language" share the lexical structure
        # (word -> class map and emission ranks) by passing a common
        # class_seed, and differ only in their transition tables — the way
        # text domains share a grammar but differ in style.
        self.class_seed = int(seed if class_seed is None else class_seed)

        lex_rng = np.random.default_rng(self.class_seed)
        rng = np.random.default_rng(seed)
        # Word -> class assignment (each class non-empty by round-robin base).
        self.word_class = np.arange(self.n_words) % self.n_classes
        lex_rng.shuffle(self.word_class)
        # Per-class member lists and Zipfian emission probabilities.
        self.class_words: list[np.ndarray] = []
        self.class_emission: list[np.ndarray] = []
        self._emission_prob = np.zeros(self.n_words)
        for c in range(self.n_classes):
            members = np.nonzero(self.word_class == c)[0]
            order = lex_rng.permutation(members.size)
            members = members[order]
            probs = _zipf(members.size, zipf_exponent)
            self.class_words.append(members)
            self.class_emission.append(probs)
            self._emission_prob[members] = probs
        # Order-2 class transitions: for every (c1, c2) a sparse row of
        # ``branching`` successor classes with Zipfian probabilities.
        branch_probs = _zipf(self.branching, zipf_exponent)
        self._branch_probs = branch_probs
        n_contexts = self.n_classes * self.n_classes
        self._successor_classes = np.empty(
            (n_contexts, self.branching), dtype=np.int64
        )
        for context_index in range(n_contexts):
            self._successor_classes[context_index] = rng.choice(
                self.n_classes, size=self.branching, replace=False
            )
        # Dense p(class | context) with smoothing folded in, for fast scoring.
        self._class_given_context = np.full(
            (n_contexts, self.n_classes), self.smoothing / self.n_classes
        )
        rows = np.repeat(np.arange(n_contexts), self.branching)
        cols = self._successor_classes.reshape(-1)
        np.add.at(
            self._class_given_context,
            (rows, cols),
            (1.0 - self.smoothing) * np.tile(branch_probs, n_contexts),
        )
        # The samplers' tables as Python lists: the per-token loops then
        # index and compare plain ints and floats, never numpy scalars.
        # The cumulative lists hold the float64 values of ``np.cumsum``.
        self._word_classes: list[int] = self.word_class.tolist()
        self._successor_rows: list[list[int]] = self._successor_classes.tolist()
        self._branch_cumulative: list[float] = np.cumsum(branch_probs).tolist()
        self._class_members: list[list[int]] = [
            members.tolist() for members in self.class_words
        ]
        self._class_cumulative: list[list[float]] = [
            np.cumsum(probs).tolist() for probs in self.class_emission
        ]

    # ------------------------------------------------------------------
    def _context_index(self, context: tuple[int, int]) -> int:
        c1 = self._word_classes[context[0]]
        c2 = self._word_classes[context[1]]
        return c1 * self.n_classes + c2

    def successor_distribution(self, context: tuple[int, int]) -> np.ndarray:
        """Full smoothed distribution ``p(word | context)`` over the lexicon."""
        class_probs = self._class_given_context[self._context_index(context)]
        return class_probs[self.word_class] * self._emission_prob_normalised()

    def _emission_prob_normalised(self) -> np.ndarray:
        # p(w | c(w)) is already normalised within each class.
        return self._emission_prob

    def word_probability(self, context: tuple[int, int], word: int) -> float:
        """Smoothed ``p(word | context)``."""
        class_probs = self._class_given_context[self._context_index(context)]
        word_class = int(self.word_class[word])
        return float(class_probs[word_class] * self._emission_prob[word])

    # ------------------------------------------------------------------
    # Table lookups.  For a finite draw ``u`` in [0, 1) ``bisect_left``
    # returns what ``np.searchsorted(side="left")`` returns on the same
    # values; the clamp covers a cumulative sum that rounds below ``u``.
    def _branch(self, u: float) -> int:
        """Index of the successor branch drawn by ``u``."""
        return min(bisect_left(self._branch_cumulative, u), self.branching - 1)

    def _emit(self, c: int, u: float) -> int:
        """The member of class ``c`` drawn by ``u``."""
        members = self._class_members[c]
        index = bisect_left(self._class_cumulative[c], u)
        return members[min(index, len(members) - 1)]

    def sample(
        self,
        n_tokens: int,
        rng: Optional[np.random.Generator] = None,
        start: Optional[tuple[int, int]] = None,
    ) -> np.ndarray:
        """Sample a word-id stream of length ``n_tokens``."""
        if n_tokens <= 0:
            raise ValueError("n_tokens must be positive")
        rng = rng or np.random.default_rng(self.seed)
        if start is None:
            context = (
                int(rng.integers(self.n_words)),
                int(rng.integers(self.n_words)),
            )
        else:
            context = (int(start[0]), int(start[1]))
        branch_u = rng.random(n_tokens).tolist()
        emit_u = rng.random(n_tokens).tolist()
        smooth_u = rng.random(n_tokens).tolist()
        smooth_words = rng.integers(self.n_words, size=n_tokens).tolist()
        word_classes = self._word_classes
        successor_rows = self._successor_rows
        branch = self._branch
        emit = self._emit
        n_classes = self.n_classes
        smoothing = self.smoothing
        previous, current = word_classes[context[0]], word_classes[context[1]]
        out = []
        for b, e, s, word in zip(branch_u, emit_u, smooth_u, smooth_words):
            if s >= smoothing:
                row = successor_rows[previous * n_classes + current]
                word = emit(row[branch(b)], e)
            out.append(word)
            previous, current = current, word_classes[word]
        return np.asarray(out, dtype=np.int64)

    def continue_sequence(
        self,
        context_words: np.ndarray,
        length: int,
        rng: np.random.Generator,
        low_probability: bool = False,
    ) -> np.ndarray:
        """Sample a continuation after ``context_words``.

        With ``low_probability=True`` each step follows the grammar's least
        likely class branch and emits the least likely word of that class —
        lexically well-formed yet improbable, a hard distractor
        (cf. ARC-Challenge).
        """
        if len(context_words) < 2:
            raise ValueError("need at least 2 context words")
        context = (int(context_words[-2]), int(context_words[-1]))
        out = np.empty(length, dtype=np.int64)
        for index in range(length):
            row = self._successor_rows[self._context_index(context)]
            if low_probability:
                # Zipf rows and members are sorted most -> least likely.
                members = self._class_members[row[-1]]
                tail = members[len(members) // 2 :]
                word = tail[int(rng.integers(len(tail)))]
            else:
                c = row[self._branch(rng.random())]
                word = self._emit(c, rng.random())
            out[index] = word
            context = (context[1], word)
        return out

    def corrupt_continuation(
        self,
        continuation: np.ndarray,
        rng: np.random.Generator,
        n_corruptions: int = 1,
    ) -> np.ndarray:
        """Replace ``n_corruptions`` positions with random lexicon words.

        The hardest distractor family: the sequence stays grammatical
        everywhere except the corrupted positions, so a model must assign
        sharp per-token probabilities to reject it.
        """
        continuation = np.asarray(continuation)
        if not 1 <= n_corruptions <= continuation.size:
            raise ValueError("n_corruptions out of range")
        corrupted = continuation.copy()
        positions = rng.choice(
            continuation.size, size=n_corruptions, replace=False
        )
        for position in positions:
            replacement = int(rng.integers(self.n_words))
            while replacement == int(corrupted[position]):
                replacement = int(rng.integers(self.n_words))
            corrupted[position] = replacement
        return corrupted

    def sequence_logprob(self, words: np.ndarray) -> float:
        """Sum of smoothed log transition probabilities along ``words``.

        The first two words are scored as uniform draws.
        """
        words = np.asarray(words)
        if words.size < 3:
            raise ValueError("need at least 3 words to score transitions")
        # n_words >= 4 and word_probability is floored by the smoothing mass
        # (smoothing / n_classes times a positive Zipf emission), so both
        # logs are positivity-safe by construction.
        total = -2.0 * np.log(self.n_words)  # lint: disable=numeric-raw-log
        for index in range(2, words.size):
            context = (int(words[index - 2]), int(words[index - 1]))
            prob = self.word_probability(context, int(words[index]))
            total += np.log(prob)  # lint: disable=numeric-raw-log
        return float(total)

    def entropy_rate(self) -> float:
        """Expected per-token entropy (nats): class branching + emission.

        A lower bound on any model's achievable cross-entropy on this
        grammar, useful for sanity-checking training.
        """
        # Zipf weights are strictly positive, so p * log(p) never hits 0*inf.
        class_entropy = float(
            -(
                self._branch_probs
                * np.log(self._branch_probs)  # lint: disable=numeric-raw-log
            ).sum()
        )
        emission_entropy = float(
            np.mean(
                [
                    -(p * np.log(p)).sum()  # lint: disable=numeric-raw-log
                    for p in self.class_emission
                ]
            )
        )
        return class_entropy + emission_entropy
