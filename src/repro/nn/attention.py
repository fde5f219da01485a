"""Multi-head self-attention with rotary position embeddings.

The projection submodules are named ``q_proj``/``k_proj``/``v_proj``/``o_proj``
to match the paper's layer naming ("self_attn.k_proj" in Algorithm 1).

Three forward paths exist:

* :meth:`MultiHeadAttention.forward` — autograd path (training, QAT, and
  the independent verification of the analytic APTQ derivatives);
* :meth:`MultiHeadAttention.forward_array` — fast numpy inference path that
  can additionally *capture* every intermediate the APTQ Hessian
  construction reads (Q, K, V, attention probs P, concatenated head
  outputs C — cf. paper Eqs. (9)-(15));
* :meth:`MultiHeadAttention.forward_cached` — incremental decoding (prefill
  and decode steps, ragged batches included) over the one KV cache,
  :class:`PagedKVCache`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn import functional as F
from repro.nn.modules import Linear, Module
from repro.runtime.errors import CacheExhausted

__all__ = [
    "RotaryEmbedding",
    "AttentionCapture",
    "MultiHeadAttention",
    "CachePlan",
    "PagedKVCache",
]


class RotaryEmbedding:
    """Precomputed cos/sin tables for rotary position embeddings."""

    def __init__(self, d_head: int, max_seq_len: int, base: float = 10000.0):
        self.d_head = d_head
        self.max_seq_len = max_seq_len
        self.base = base
        self.cos, self.sin = F.rope_tables(max_seq_len, d_head, base)

    def tables(self, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Cos/sin tables truncated to ``seq_len`` positions."""
        if seq_len > self.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds table size {self.max_seq_len}"
            )
        return self.cos[:seq_len], self.sin[:seq_len]


@dataclasses.dataclass
class AttentionCapture:
    """Intermediates of one attention forward pass (numpy arrays).

    Shapes use ``b`` batch, ``h`` heads, ``s`` sequence, ``d`` head dim and
    ``D = h*d`` model dim.  These are the quantities the paper's derivative
    formulas read, and nothing else:

    - ``x``: layer input after RMSNorm, (b, s, D) — the paper's Q=K=V inputs.
    - ``q``/``k``: rotated per-head projections, (b, h, s, d).
    - ``v``: per-head value projections, (b, h, s, d).
    - ``probs``: softmax of the pre-softmax logits N_h = Q_h K_h^T / sqrt(d)
      (causally masked) = P_h, (b, h, s, s).
    - ``heads``: concatenated head outputs Concat(head_1..head_H), (b, s, D).

    N_h is formed inside :meth:`MultiHeadAttention.forward_array` and not
    kept (recompute it from ``q`` and ``k``), nor is the block output
    ``heads @ W^O``, which the forward returns.
    """

    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray
    heads: np.ndarray


class MultiHeadAttention(Module):
    """Causal multi-head self-attention (the paper's MultiHead(Q, K, V))."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        max_seq_len: int,
        rope_base: float = 10000.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        rng = rng or np.random.default_rng(0)
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.o_proj = Linear(d_model, d_model, rng=rng)
        self.rope = RotaryEmbedding(self.d_head, max_seq_len, rope_base)
        # Additive causal mask over the whole context, built once;
        # forward_array adds a read-only slice of it, and
        # PagedKVCache.plan takes each new token's row of it.
        self.causal_mask = F.causal_mask(max_seq_len)
        self.causal_mask.flags.writeable = False

    # ------------------------------------------------------------------
    # Autograd path
    # ------------------------------------------------------------------
    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        x = ops.reshape(x, (batch, seq, self.n_heads, self.d_head))
        return ops.transpose(x, (0, 2, 1, 3))

    def _merge_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        x = ops.transpose(x, (0, 2, 1, 3))
        return ops.reshape(x, (batch, seq, self.d_model))

    def _rope_tensor(self, x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
        half = self.d_head // 2
        rotated = ops.concat(
            [ops.neg(x[..., half:]), x[..., :half]], axis=-1
        )
        return ops.add(
            ops.mul(x, Tensor(cos)), ops.mul(rotated, Tensor(sin))
        )

    def forward(self, x: Tensor) -> Tensor:
        """Causal self-attention over ``x`` (autograd path)."""
        batch, seq, _ = x.shape
        cos, sin = self.rope.tables(seq)
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)
        q = self._rope_tensor(q, cos, sin)
        k = self._rope_tensor(k, cos, sin)
        scale = 1.0 / np.sqrt(self.d_head)
        scores = ops.matmul(q, ops.swapaxes(k, -1, -2)) * scale
        scores = ops.add(scores, Tensor(F.causal_mask(seq)))
        probs = ops.softmax(scores, axis=-1)
        context = ops.matmul(probs, v)
        merged = self._merge_heads(context, batch, seq)
        return self.o_proj(merged)

    # ------------------------------------------------------------------
    # Numpy inference path
    # ------------------------------------------------------------------
    def forward_array(
        self, x: np.ndarray, capture: bool = False
    ) -> np.ndarray | tuple[np.ndarray, AttentionCapture]:
        """Numpy attention; optionally captures per-head internals."""
        batch, seq, _ = x.shape
        cos, sin = self.rope.tables(seq)

        def split(a: np.ndarray) -> np.ndarray:
            return a.reshape(batch, seq, self.n_heads, self.d_head).transpose(
                0, 2, 1, 3
            )

        q = F.apply_rope(split(self.q_proj.forward_array(x)), cos, sin)
        k = F.apply_rope(split(self.k_proj.forward_array(x)), cos, sin)
        v = split(self.v_proj.forward_array(x))
        scores = q @ np.swapaxes(k, -1, -2)
        scores /= np.sqrt(self.d_head)
        scores += self.causal_mask[:seq, :seq]
        probs = F.softmax(scores, axis=-1)
        context = probs @ v
        heads = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        output = self.o_proj.forward_array(heads)
        if not capture:
            return output
        return output, AttentionCapture(
            x=x, q=q, k=k, v=v, probs=probs, heads=heads
        )

    # ------------------------------------------------------------------
    # Incremental decoding over the paged KV cache
    # ------------------------------------------------------------------
    def forward_cached(
        self,
        x: np.ndarray,
        cache: "PagedKVCache",
        layer: int,
        plan: "CachePlan",
    ) -> np.ndarray:
        """Attend new tokens against each row's cached keys/values.

        ``x`` is ``(tokens, 1, d_model)``: the new tokens of ``plan``'s
        rows packed in row order (:class:`CachePlan`).  Row ``b`` extends
        sequence ``plan.seq_ids[b]``, whose new keys/values are written at
        ``layer`` before it attends.  RoPE runs once over all tokens at
        their own positions; every projection runs per row group
        (:meth:`CachePlan.rowwise`), as each row's own call would run it.

        The leading ``plan.decode`` rows (one new token each) run as one
        stacked attention over the full context (``max_seq_len`` keys),
        each row masked to its own length: one gather, one softmax.  Every
        such row runs the same shapes whatever its company and the cache's
        block geometry, and its padded keys/values read exact zeros, so it
        is bit-identical to the same row decoded alone, at
        O(``max_seq_len``) per decoded token.  Every other row attends over
        exactly its ``start + steps`` keys, masked causally from its own
        offset; on an empty cache that is the arithmetic of
        :meth:`forward_array` (identical rope rows, mask values and
        reductions).
        """
        tokens = x.shape[0]
        # Per-token rope rows, broadcast over heads: (tokens, 1, d_head).
        cos = self.rope.cos[plan.positions][:, None]
        sin = self.rope.sin[plan.positions][:, None]

        def project(linear: Linear) -> np.ndarray:
            out = plan.rowwise(linear.forward_array, x)
            return out.reshape(tokens, self.n_heads, self.d_head)

        q = F.apply_rope(project(self.q_proj), cos, sin)
        k = F.apply_rope(project(self.k_proj), cos, sin)
        v = project(self.v_proj)
        cache.write(layer, plan.seq_ids, plan.steps, plan.write_slots, k, v)
        parts = []
        decode = plan.decode
        if decode:
            keys, values = cache.read(layer, plan.slots[:decode])
            context = self._attend(
                q[:decode, :, None], keys, values,
                plan.mask[:decode, None, None],
            )
            parts.append(context.reshape(decode, 1, self.d_model))
        first = decode
        for row in range(decode, len(plan.seq_ids)):
            # Exact length: the first end = start + steps columns of the
            # offset causal mask, for start == 0 the forward_array mask.
            steps = plan.steps[row]
            end = plan.starts[row] + steps
            keys, values = cache.read(layer, plan.slots[row : row + 1, :end])
            context = self._attend(
                q[first : first + steps].transpose(1, 0, 2)[None],
                keys, values,
                plan.mask[first : first + steps, :end],
            )
            parts.append(
                context[0].transpose(1, 0, 2).reshape(steps, 1, self.d_model)
            )
            first += steps
        heads = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return plan.rowwise(self.o_proj.forward_array, heads)

    def _attend(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        """``softmax(q kᵀ / sqrt(d) + mask) v`` over stacked heads."""
        scores = q @ np.swapaxes(keys, -1, -2)
        scores /= np.sqrt(self.d_head)
        scores += mask
        return F.softmax(scores, axis=-1) @ values


class CachePlan(NamedTuple):
    """Where one cached forward writes and reads, shared by every layer.

    Built once per call by :meth:`PagedKVCache.plan`, after every row's
    blocks are reserved.  A call's new tokens are *packed*: row after row,
    ``steps[b]`` tokens each, in one ``(tokens, 1, ...)`` array — each
    token a row of one, so a decode step's packing is its own
    ``(rows, 1, ...)`` batch.

    - ``seq_ids``: the sequence of each row.
    - ``starts``: each row's committed length (its first new position).
    - ``steps``: each row's new-token count.
    - ``decode``: how many leading rows hold one new token each; a call
      attends those as one stacked decode and every later row on its own.
    - ``views``: the index of each row group into a packed array, as
      the row's own call holds it: ``[:decode]``, a ``(decode, 1, ...)``
      decode step, then ``[None, first:stop, 0]``, a ``(1, steps, ...)``
      prefill, for every later row.
    - ``positions``: ``(tokens,)`` absolute position of every new token.
    - ``write_slots``: ``(tokens,)`` pool slot
      (``block * block_size + offset``) of every new token.
    - ``slots``: ``(rows, context)`` pool slot of each row's positions
      ``0 .. context - 1``, where ``context`` (the model's
      ``max_seq_len``) is the width every decode row is read at; past a
      row's blocks they point into the cache's zero sentinel block.
    - ``mask``: ``(tokens, context)`` additive causal mask, ``0`` up to
      each new token's position and ``-inf`` after it.
    """

    seq_ids: tuple[Hashable, ...]
    starts: tuple[int, ...]
    steps: tuple[int, ...]
    decode: int
    views: tuple[tuple, ...]
    positions: np.ndarray
    write_slots: np.ndarray
    slots: np.ndarray
    mask: np.ndarray

    def rowwise(
        self, product: Callable[[np.ndarray], np.ndarray], x: np.ndarray
    ) -> np.ndarray:
        """``product`` of packed ``x``, one call per row group (``views``).

        Each row therefore meets the BLAS call its own call would make —
        one ``(decode, 1, d)`` product for the decode rows, one
        ``(1, L, d)`` product per prefill row — and no row's result
        depends on its company or on the packing.  Packed back to
        ``(tokens, 1, out)``.
        """
        if self.decode == len(self.seq_ids):
            return product(x)  # a decode step: x is its one group
        parts = [product(x[view]) for view in self.views]
        parts = [part.reshape(-1, 1, part.shape[-1]) for part in parts]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class PagedKVCache:
    """Block-pooled key/value storage shared by many sequences.

    Built the way vLLM's PagedAttention is: key/value storage is a fixed
    pool of ``num_blocks`` blocks of ``block_size`` token slots, shared by
    all sequences, and each sequence maps its token positions onto pool
    blocks through a block table.  Sequences of any length can therefore
    join and leave a running batch, and freeing a finished sequence returns
    its blocks to the pool immediately.  Every block stores all
    ``n_layers`` layers, so one reservation covers the whole depth of the
    model.  Pools are allocated once, on the first write (head count, head
    dimension and dtype are taken from the first key tensor seen), and are
    token-major: ``(n_layers, slots, heads, d_head)``.

    One extra block, the **sentinel** (index ``num_blocks``), pads a
    row's slots past its own blocks out to a fixed context.  It is never
    handed out, never written and never counted in :attr:`free_blocks` or
    :attr:`used_blocks`, so it reads zero forever; and :meth:`reserve`
    zeroes every block it hands out.  A row's slots past its own length
    therefore read exact zeros, never the stale (possibly NaN) keys/values
    of a freed sequence.  A decode step reads every row at the full
    context (O(``max_seq_len``) per decoded token) through those padded
    slots.

    Gathered histories are exact copies of what was written (pool writes
    and fancy-index gathers move bytes, never round), returned read-only;
    :meth:`MultiHeadAttention.forward_cached` over a paged sequence is
    therefore independent of block geometry and batch company — the
    property the serving layer's determinism contract rests on.

    Exhaustion is a typed, recoverable signal: :meth:`reserve` and
    :meth:`plan` raise :class:`~repro.runtime.errors.CacheExhausted`
    *before* any block is handed out or any byte written, for all rows of
    a call at once, so a scheduler can preempt a victim sequence and retry
    without ever observing a half-written cache.
    """

    def __init__(
        self, n_layers: int, block_size: int = 16, num_blocks: int = 64
    ) -> None:
        if n_layers < 1:
            raise ValueError("n_layers must be positive")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if num_blocks < 1:
            raise ValueError("num_blocks must be positive")
        self.n_layers = int(n_layers)
        self.block_size = int(block_size)
        self.num_blocks = int(num_blocks)
        # Free list is a stack; blocks are handed out from the end and
        # returned in free() order, keeping allocation deterministic for a
        # deterministic sequence of operations.
        self._free: list[int] = list(range(self.num_blocks - 1, -1, -1))
        self._tables: dict[Hashable, list[int]] = {}
        self._lengths: dict[Hashable, list[int]] = {}
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._offsets = np.arange(self.block_size)

    # -- pool accounting -------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Blocks currently available in the pool."""
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        """Blocks currently assigned to live sequences."""
        return self.num_blocks - len(self._free)

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` positions."""
        if tokens <= 0:
            return 0
        return -(-tokens // self.block_size)

    def can_reserve(self, seq_id: Hashable, total_tokens: int) -> bool:
        """Whether :meth:`reserve` for ``total_tokens`` would succeed."""
        held = len(self._tables.get(seq_id, ()))
        return self.blocks_for(total_tokens) - held <= len(self._free)

    def seq_ids(self) -> tuple[Hashable, ...]:
        """Live sequence ids, in allocation order."""
        return tuple(self._tables)

    def length(self, seq_id: Hashable, layer: int = 0) -> int:
        """Committed token count of a sequence at ``layer``."""
        return self._lengths[seq_id][layer]

    # -- sequence lifecycle ----------------------------------------------
    def allocate(self, seq_id: Hashable) -> None:
        """Register an empty sequence (no blocks reserved yet)."""
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id!r} is already allocated")
        self._tables[seq_id] = []
        self._lengths[seq_id] = [0] * self.n_layers

    def reserve(self, seq_id: Hashable, total_tokens: int) -> None:
        """Grow the block table to cover ``total_tokens`` positions.

        Allocation-only — no cached token is touched; the blocks handed
        out are zeroed — so a :class:`CacheExhausted` here leaves every
        sequence consistent and the scheduler free to preempt and retry.
        """
        self._reserve_rows((seq_id,), (total_tokens,))

    def _reserve_rows(
        self, seq_ids: Sequence[Hashable], totals: Sequence[int]
    ) -> None:
        """Reserve ``totals[b]`` positions for every row, all or nothing."""
        growing = []
        for seq_id, total in zip(seq_ids, totals):
            table = self._tables[seq_id]
            needed = self.blocks_for(total) - len(table)
            if needed > 0:
                growing.append((seq_id, table, needed))
        if not growing:
            return
        short = sum(needed for _, _, needed in growing)
        if short > len(self._free):
            raise CacheExhausted(
                f"KV block pool exhausted: sequence(s) "
                f"{[seq_id for seq_id, _, _ in growing]!r} need "
                f"{short} more block(s), {len(self._free)} free "
                f"(pool {self.num_blocks} x {self.block_size} tokens)"
            )
        for _, table, needed in growing:
            for _ in range(needed):
                block = self._free.pop()
                if self._keys is not None:
                    span = slice(
                        block * self.block_size, (block + 1) * self.block_size
                    )
                    self._keys[:, span] = 0.0
                    self._values[:, span] = 0.0
                table.append(block)

    def free(self, seq_id: Hashable) -> int:
        """Release a sequence's blocks back to the pool; returns the count."""
        table = self._tables.pop(seq_id, None)
        self._lengths.pop(seq_id, None)
        if table is None:
            return 0
        self._free.extend(table)
        return len(table)

    def free_all(self) -> None:
        """Release every sequence (worker reset)."""
        for seq_id in list(self._tables):
            self.free(seq_id)

    # -- planning ---------------------------------------------------------
    def plan(
        self,
        seq_ids: Sequence[Hashable],
        steps: Sequence[int],
        causal_mask: np.ndarray,
    ) -> CachePlan:
        """Reserve ``steps[b]`` new tokens for every row and map its slots.

        Row ``b`` extends ``seq_ids[b]`` from its committed length; rows
        may add different token counts (a prefill next to a decode).
        ``causal_mask`` is the model's additive ``(context, context)``
        mask (:attr:`MultiHeadAttention.causal_mask`); its width, the
        model's ``max_seq_len``, is the width a decode step reads every
        row at, and no row may end past it.  Every row's blocks are
        reserved before the first write, all or nothing: a ``ValueError``
        or :class:`CacheExhausted` leaves every table, length and free
        block as it was.
        """
        seq_ids = tuple(seq_ids)
        steps = tuple(steps)
        if len(set(seq_ids)) != len(seq_ids):
            raise ValueError("seq_ids must not repeat a sequence")
        context = causal_mask.shape[-1]
        starts = tuple([self._lengths[seq_id][0] for seq_id in seq_ids])
        ends = [start + n for start, n in zip(starts, steps)]
        if max(ends) > context:
            raise ValueError(
                f"KV cache is full: a row would hold {max(ends)} tokens, "
                f"past the {context}-token context (max_seq_len reached)"
            )
        self._reserve_rows(seq_ids, ends)
        slots = self._slot_map(seq_ids, context)
        decode = 0
        while decode < len(steps) and steps[decode] == 1:
            decode += 1
        # (positions, write slots) of each row group, in packed order.
        views, parts = [], []
        if decode:
            views.append((slice(0, decode),))
            head = np.asarray(starts[:decode], np.intp)
            parts.append((head, slots[np.arange(decode), head]))
        first = decode
        for row in range(decode, len(seq_ids)):
            start, n = starts[row], steps[row]
            views.append((None, slice(first, first + n), 0))
            parts.append(
                (np.arange(start, start + n), slots[row, start : start + n])
            )
            first += n
        positions, write_slots = (
            parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        )
        return CachePlan(
            seq_ids,
            starts,
            steps,
            decode,
            tuple(views),
            positions,
            write_slots,
            slots,
            causal_mask[positions],
        )

    def _slot_map(
        self, seq_ids: Sequence[Hashable], tokens: int
    ) -> np.ndarray:
        """``(rows, tokens)`` pool slots of positions ``0 .. tokens - 1``
        through each row's block table, padded with the sentinel block."""
        n_blocks = self.blocks_for(tokens)
        tables = np.full((len(seq_ids), n_blocks, 1), self.num_blocks, np.intp)
        for row, seq_id in enumerate(seq_ids):
            table = self._tables[seq_id][:n_blocks]
            tables[row, : len(table), 0] = table
        tables *= self.block_size
        return (tables + self._offsets).reshape(len(seq_ids), -1)[:, :tokens]

    # -- storage ----------------------------------------------------------
    def _ensure_pools(self, template: np.ndarray) -> None:
        """Allocate the K/V pools from the first key tensor's geometry."""
        if self._keys is not None:
            return
        heads, d_head = template.shape[-2], template.shape[-1]
        slots = (self.num_blocks + 1) * self.block_size
        shape = (self.n_layers, slots, heads, d_head)
        self._keys = np.zeros(shape, dtype=template.dtype)
        self._values = np.zeros(shape, dtype=template.dtype)

    def write(
        self,
        layer: int,
        seq_ids: Sequence[Hashable],
        steps: Sequence[int],
        slots: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """Store packed ``(tokens, heads, d_head)`` keys/values at reserved
        ``(tokens,)`` slots (:attr:`CachePlan.write_slots`).

        One fancy-index write per pool for all rows; row ``b``'s length at
        ``layer`` advances by ``steps[b]``.
        """
        self._ensure_pools(k)
        self._keys[layer][slots] = k
        self._values[layer][slots] = v
        for seq_id, n in zip(seq_ids, steps):
            self._lengths[seq_id][layer] += n

    def read(
        self, layer: int, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values at ``(rows, width)`` pool slots
        (:attr:`CachePlan.slots`), ``(rows, heads, width, d_head)`` each.

        One gather per pool; the arrays are fresh copies with the write
        flag cleared — callers cannot corrupt pool state through them.
        Raises ``ValueError`` before the first write, which sizes the pools.
        """
        if self._keys is None:
            raise ValueError(
                "nothing has been written to this KV cache yet: its pools "
                "are allocated at the first write"
            )
        out = []
        for pool in (self._keys, self._values):
            history = pool[layer].take(slots, axis=0)  # (rows, width, h, d)
            history.flags.writeable = False
            out.append(history.transpose(0, 2, 1, 3))
        return out[0], out[1]

    def append(
        self, layer: int, seq_id: Hashable, k: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append ``(1, heads, t, d_head)`` keys/values for one sequence.

        Returns the sequence's full cached history at ``layer`` as two
        read-only ``(1, heads, length, d_head)`` arrays (:meth:`gather`).
        """
        k = np.asarray(k)
        v = np.asarray(v)
        if k.ndim != 4 or k.shape[0] != 1:
            raise ValueError(
                f"expected (1, heads, t, d_head) keys, got {k.shape}"
            )
        start = self._lengths[seq_id][layer]
        end = start + k.shape[2]
        self.reserve(seq_id, end)
        slots = self._slot_map((seq_id,), end)[0, start:]
        self.write(
            layer, (seq_id,), (k.shape[2],), slots,
            k[0].transpose(1, 0, 2), v[0].transpose(1, 0, 2),
        )
        return self.gather(layer, seq_id)

    def gather(
        self, layer: int, seq_id: Hashable
    ) -> tuple[np.ndarray, np.ndarray]:
        """The sequence's cached ``(1, heads, length, d_head)`` history.

        Returned arrays are freshly gathered copies with the write flag
        cleared — callers cannot corrupt pool state through them.
        """
        length = self._lengths[seq_id][layer]
        return self.read(layer, self._slot_map((seq_id,), length))
