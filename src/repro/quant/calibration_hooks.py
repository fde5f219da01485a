"""Input-statistics collection for calibration-driven quantizers.

GPTQ, OWQ, PB-LLM, SmoothQuant and APTQ's feed-forward layers need
per-layer input statistics: the input Hessian ``H = (2/n) Σ X^T X`` and/or
per-channel activation ranges.  This module gathers them by hooking the
model's Linear layers while calibration segments run through the numpy
forward path.

Two paths feed the hooks:

* :func:`collect_input_stats` — one full-model forward per batch; the
  statistics of a model whose weights stay put (SmoothQuant, the
  sensitivity pass, APTQ's untied ``lm_head``).
* :class:`CalibrationCaptureStream` — caches every batch's running hidden
  state and advances it one block at a time, for the sequential protocol
  that quantizes block ``i`` before measuring block ``i+1``
  (:func:`sequential_input_stats`, APTQ's block loop).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.calibration import screen_finite
from repro.nn.attention import AttentionCapture
from repro.nn.modules import Linear
from repro.nn.transformer import LlamaModel
from repro.runtime import faults

__all__ = [
    "InputStats",
    "SharedGramCache",
    "InputCollector",
    "collect_input_stats",
    "CalibrationCaptureStream",
    "sequential_input_stats",
]


@dataclasses.dataclass
class InputStats:
    """Accumulated input statistics for one linear layer."""

    hessian: np.ndarray
    abs_max: np.ndarray
    second_moment: np.ndarray
    n_samples: int

    def normalised_hessian(self) -> np.ndarray:
        """``(2/n) Σ x x^T`` — the GPTQ layer Hessian."""
        if self.n_samples == 0:
            raise RuntimeError("no calibration samples were collected")
        return self.hessian * (2.0 / self.n_samples)


class SharedGramCache:
    """Deduplicates input Gram matrices across layers sharing one input.

    The calibration Gram ``X^T X`` is the dominant cost of input-statistics
    collection, and several projections consume the *same* activation
    tensor — Q/K/V read the post-norm block input, gate/up read the MLP
    input — so computing the Gram per layer repeats identical GEMMs.  The
    layers sharing an input run back to back, so the cache keeps one entry:
    the most recent activation array and its Gram.  A hook on the same
    array hits; any other array replaces the entry, so a calibration
    forward pins one activation at a time, however deep the model.

    Reuse is bit-identical to recomputation: a hit returns the very array
    an independent ``flat.T @ flat`` on the same input would produce.  The
    entry holds a reference to its activation, so an ``id()`` can never be
    recycled while the entry is alive.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entry: tuple[np.ndarray, np.ndarray] | None = None

    def gram(self, source: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """``flat.T @ flat``, memoized by the identity of ``source``.

        ``source`` is the original activation array a hook observed;
        ``flat`` is its 2-D ``(n_tokens, d_in)`` reshape (a view, so its
        own ``id`` is not stable across hooks).
        """
        entry = self._entry
        if entry is not None and entry[0] is source:
            self.hits += 1
            return entry[1]
        self.misses += 1
        value = flat.T @ flat
        value.setflags(write=False)
        self._entry = (source, value)
        return value

    def reset(self) -> None:
        """Drop the entry (call between calibration batches)."""
        self._entry = None


class InputCollector:
    """Hooks a set of Linears and accumulates their input statistics."""

    def __init__(self, layers: dict[str, Linear]) -> None:
        self.layers = layers
        #: Index of the calibration batch currently streaming through the
        #: model; lets activation screening name the offending batch.
        self.current_batch: int | None = None
        #: Gram matrices are shared across layers fed by the same
        #: activation tensor (Q/K/V, gate/up) — see
        #: :class:`SharedGramCache`.
        self.gram_cache = SharedGramCache()
        self.stats: dict[str, InputStats] = {
            name: InputStats(
                hessian=np.zeros((linear.d_in, linear.d_in)),
                abs_max=np.zeros(linear.d_in),
                second_moment=np.zeros(linear.d_in),
                n_samples=0,
            )
            for name, linear in layers.items()
        }
        self._hooks: list[tuple[Linear, object]] = []

    def __enter__(self) -> "InputCollector":
        for name, linear in self.layers.items():
            stats = self.stats[name]

            def hook(
                x: np.ndarray, stats: InputStats = stats, name: str = name
            ) -> None:
                flat = x.reshape(-1, x.shape[-1])
                screen_finite(
                    flat,
                    f"activations entering layer {name!r} (calibration "
                    f"batch {self.current_batch})",
                )
                stats.hessian += self.gram_cache.gram(x, flat)
                stats.abs_max = np.maximum(
                    stats.abs_max, np.abs(flat).max(axis=0)
                )
                stats.second_moment += (flat**2).sum(axis=0)
                stats.n_samples += flat.shape[0]

            linear.input_hooks.append(hook)
            self._hooks.append((linear, hook))
        return self

    def __exit__(self, *exc_info) -> None:
        for linear, hook in self._hooks:
            linear.input_hooks.remove(hook)
        self._hooks.clear()


def collect_input_stats(
    model: LlamaModel,
    segments: np.ndarray | Iterable[np.ndarray],
    layer_names: Sequence[str] | None = None,
    batch_size: int = 16,
) -> dict[str, InputStats]:
    """Run calibration ``segments`` through ``model`` and collect stats.

    ``segments`` is a ``(n, seq_len)`` array (or iterable of batches);
    ``layer_names`` restricts collection (default: every quantizable layer).

    Every batch is screened for NaN/Inf before it reaches the model (an
    active :class:`~repro.runtime.faults.FaultInjector` may poison batches
    first); a poisoned batch raises
    :class:`~repro.runtime.errors.CalibrationError` naming its index.
    """
    all_layers = model.quantizable_linears()
    if layer_names is None:
        layers = all_layers
    else:
        layers = {name: all_layers[name] for name in layer_names}
    if isinstance(segments, np.ndarray):
        batches = [
            segments[start : start + batch_size]
            for start in range(0, segments.shape[0], batch_size)
        ]
    else:
        batches = list(segments)
    with InputCollector(layers) as collector:
        for index, batch in enumerate(batches):
            batch = faults.transform_batch(index, batch)
            screen_finite(batch, f"calibration batch {index}")
            collector.current_batch = index
            model.forward_array(batch)
            # Activation arrays are batch-local: release the one the Gram
            # cache pins, so it does not outlive its batch.
            collector.gram_cache.reset()
        collector.current_batch = None
    return collector.stats


class CalibrationCaptureStream:
    """Single-pass capture of every block's intermediates per batch.

    :func:`repro.core.hessian.capture_attention` restarts at the
    embedding for every ``(block, batch)`` pair — O(L²) block forwards per batch over a
    full calibration run.  The stream instead caches each batch's running
    hidden state and advances it one block at a time, so the whole run
    costs O(L) block forwards per batch.  Each batch is screened for
    NaN/Inf where the stream first embeds it (an active
    :class:`~repro.runtime.faults.FaultInjector` may poison it first), as
    :func:`collect_input_stats` does.

    Two regimes:

    * ``frozen=True`` — the model's weights will not change between
      requests (the sensitivity pass).  A block's full forward output is
      reused directly as the next block's input.
    * ``frozen=False`` (default) — the sequential loops (APTQ's block
      loop, :func:`sequential_input_stats`) *quantize* block ``i`` after
      measuring it and before requesting block ``i+1``.  The stream
      therefore defers advancing past block ``i`` until block ``i+1`` is
      requested, at which point it re-runs only block ``i``'s forward
      with the then-current (quantized) weights.  Because those loops
      finish each block before moving on and never revisit one, every
      cached hidden state is computed with exactly the weights a
      per-block full-model re-forward would have seen — bitwise
      identical captures and statistics.
      A capture needs only the block's attention half, so that is all a
      deferred capture runs.

    :meth:`block_input_stats` serves the same cached hidden states to an
    :class:`InputCollector`: block ``i``'s layer-input statistics from one
    block forward per batch, instead of a full-model forward;
    :meth:`head_input_stats` does the same for an untied ``lm_head`` after
    the last block.

    Requests are forward-only: each asks for a block past the last one
    requested, except that a block's statistics may follow its captures.
    Skipped blocks are forwarded without capture (resume support).
    """

    def __init__(
        self,
        model: LlamaModel,
        segments: np.ndarray,
        batch_size: int = 16,
        frozen: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        segments = np.atleast_2d(np.asarray(segments))
        if segments.shape[0] == 0:
            raise ValueError("no calibration segments")
        self.model = model
        self.frozen = frozen
        self._batches = [
            segments[start : start + batch_size]
            for start in range(0, segments.shape[0], batch_size)
        ]
        self._inputs: list[np.ndarray] | None = None
        # Index of the first block whose forward has NOT yet been applied
        # to the cached hidden states.
        self._front = 0
        # Block ``_front``'s output from a frozen stream's full forward;
        # advancing past the block reuses it verbatim.
        self._outputs: list[np.ndarray] | None = None
        # Smallest block index the next capture / statistics request may
        # ask for.
        self._min_capture = 0
        self._min_stats = 0

    @property
    def n_batches(self) -> int:
        """Number of calibration batches the stream iterates per block."""
        return len(self._batches)

    def _embed(self) -> list[np.ndarray]:
        """Screened embeddings of every calibration batch."""
        inputs = []
        for index, batch in enumerate(self._batches):
            batch = faults.transform_batch(index, batch)
            screen_finite(batch, f"calibration batch {index}")
            inputs.append(self.model.embed.weight.data[batch])
        return inputs

    def _inputs_of(self, block_index: int, floor: int) -> list[np.ndarray]:
        """Block ``block_index``'s cached inputs, advancing the stream."""
        if not 0 <= block_index < len(self.model.blocks):
            raise IndexError(f"block index {block_index} out of range")
        return self._advance(block_index, floor)

    def _advance(self, block_index: int, floor: int) -> list[np.ndarray]:
        """The cached hidden states entering block ``block_index``.

        ``block_index == len(model.blocks)`` is the last block's output,
        the input of ``final_norm``.
        """
        if block_index < floor:
            raise ValueError(
                f"capture stream is forward-only: block {block_index} "
                f"requested where block {floor} or later was due"
            )
        if self._inputs is None:
            self._inputs = self._embed()
        # Re-run the deferred (possibly re-quantized) prefix up to the
        # requested block with the weights as they stand *now*.
        while self._front < block_index:
            if self._outputs is None:
                block = self.model.blocks[self._front]
                self._inputs = [block.forward_array(x) for x in self._inputs]
            else:
                self._inputs, self._outputs = self._outputs, None
            self._front += 1
        return self._inputs

    def block_captures(self, block_index: int) -> list[AttentionCapture]:
        """Per-batch captures of ``block_index``, advancing the stream."""
        inputs = self._inputs_of(block_index, self._min_capture)
        block = self.model.blocks[block_index]
        captures: list[AttentionCapture] = []
        if self.frozen:
            # Immutable model: the capturing forward's output is the next
            # block's input verbatim.
            self._outputs = []
            for x in inputs:
                out, capture = block.forward_array(x, capture=True)
                captures.append(capture)
                self._outputs.append(out)
        else:
            # The next request re-runs this block with its quantized
            # weights, so its output would be thrown away: run only the
            # attention half the capture needs.
            for x in inputs:
                normed = block.input_norm.forward_array(x)
                captures.append(
                    block.self_attn.forward_array(normed, capture=True)[1]
                )
        self._min_capture = block_index + 1
        self._min_stats = block_index
        return captures

    def block_input_stats(
        self, block_index: int, layers: dict[str, Linear]
    ) -> dict[str, InputStats]:
        """Input statistics of ``layers`` (of block ``block_index``).

        Runs only block ``block_index`` over the cached hidden states, with
        an :class:`InputCollector` on ``layers`` — bitwise what
        :func:`collect_input_stats` gathers from a full-model forward of
        the same batches.
        """
        inputs = self._inputs_of(block_index, self._min_stats)
        outputs, stats = _collect(
            layers, inputs, self.model.blocks[block_index].forward_array
        )
        if self.frozen:
            self._outputs = outputs
        self._min_capture = self._min_stats = block_index + 1
        return stats

    def head_input_stats(self) -> dict[str, InputStats]:
        """Input statistics of an untied ``lm_head``, from the stream.

        Advances past the last block (with its weights as they stand),
        applies ``final_norm`` and feeds the head: bitwise what
        :func:`collect_input_stats` gathers for ``lm_head`` from a
        full-model forward of the same batches.  Ends the stream.
        """
        head = self.model.lm_head
        if head is None:
            raise ValueError("the model ties its output embedding")
        n_blocks = len(self.model.blocks)
        inputs = self._advance(n_blocks, self._min_stats)
        final_norm = self.model.final_norm
        _, stats = _collect(
            {"lm_head": head},
            inputs,
            lambda x: head.forward_array(final_norm.forward_array(x)),
        )
        self._min_capture = self._min_stats = n_blocks + 1
        return stats


def _collect(
    layers: dict[str, Linear], inputs: list[np.ndarray], forward
) -> tuple[list[np.ndarray], dict[str, InputStats]]:
    """Run ``forward`` over each batch's ``inputs`` with ``layers`` hooked.

    Returns the per-batch outputs and the layers' statistics.
    """
    outputs = []
    with InputCollector(layers) as collector:
        for index, x in enumerate(inputs):
            collector.current_batch = index
            outputs.append(forward(x))
            # Activation arrays are batch-local: release the one the Gram
            # cache pins, so it does not outlive its batch.
            collector.gram_cache.reset()
        collector.current_batch = None
    return outputs, collector.stats


def sequential_input_stats(
    model: LlamaModel, segments: np.ndarray, batch_size: int = 16
) -> Iterator[tuple[list[str], dict[str, InputStats]]]:
    """Yield ``(layer names, statistics)`` per block, in forward order.

    The GPTQ protocol: block ``i``'s layers are measured on the model as
    the caller left it, so with blocks ``0..i-1`` already quantized.  The
    generator is lazy — a group is measured when the caller asks for it —
    and one deferred :class:`CalibrationCaptureStream` serves every block,
    so a run costs ``2L - 1`` block forwards per batch instead of a
    full-model forward per block.  An untied ``lm_head`` comes last, from
    the same stream: one more block forward per batch and the final norm.
    Every group is bitwise what :func:`collect_input_stats` would gather
    at that point.
    """
    layers = model.quantizable_linears()
    stream = CalibrationCaptureStream(model, segments, batch_size=batch_size)
    for block_index in range(len(model.blocks)):
        prefix = f"blocks.{block_index}."
        group = {
            name: linear
            for name, linear in layers.items()
            if name.startswith(prefix)
        }
        yield list(group), stream.block_input_stats(block_index, group)
    if model.lm_head is not None:
        yield ["lm_head"], stream.head_input_stats()
