"""Integer-range / bit-width abstract interpretation of ``Bits:`` contracts.

Functions opt into range checking by carrying a ``Bits:`` (alias
``Ranges:``) section in their docstring, one line per parameter plus an
optional ``return`` line::

    def pack_codes(codes, bits):
        '''Pack integer codes into a uint32 word stream.

        Bits:
            codes: u64[0, 2**bits - 1]
            bits: i64[1, 32]
            return: u32
        '''

The grammar of one entry is ``name: spec`` where ``name`` is an identifier
or a dotted ``self.attr`` path and ``spec`` is

* ``dtype`` — a container dtype token (``u8``/``u16``/``u32``/``u64``/
  ``i8``/``i16``/``i32``/``i64``/``f16``/``f32``/``f64``/``int``/``bool``);
  fixed-width integer dtypes imply their representable interval;
* ``dtype[lo, hi]`` — a dtype with an explicit value interval;
* ``[lo, hi]`` — an interval with no dtype commitment;
* ``any`` — explicitly unchecked.

Bounds are ``*`` (unbounded) or integer expressions over literals and the
other declared names (``2**bits - 1``), evaluated in interval arithmetic at
analysis time so one contract covers every bit-width.

The interpreter (see :func:`analyze_module_ranges`) seeds an environment
from the spec plus module-level integer constants and walks the body,
propagating intervals through the arithmetic/shift/mask subset the packing
and dequantization code uses.  The domain is one-sided: anything not
understood becomes unknown and produces no diagnostic.  Findings require
two *known* facts to conflict:

* ``wp-int-overflow`` — an arithmetic/shift/OR result interval exceeds its
  fixed-width container dtype;
* ``wp-lossy-cast`` — a cast whose known source interval does not fit the
  target dtype, or a float64→float32/float16 narrowing on an annotated
  value without a justifying pragma;
* ``wp-bits-spec-violation`` — code contradicts a declared ``Bits:``
  contract: a return value or call argument outside the declared interval,
  or a section that does not parse.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from typing import Iterable, Iterator, Optional

from repro.analysis import astutil
from repro.analysis.core import Diagnostic, Rule, WholeProgramRule, wprule

__all__ = [
    "Interval",
    "RangeValue",
    "BitsSpec",
    "BitsFunctionSpec",
    "parse_bits_entry",
    "parse_bits_docstring",
    "collect_bits_specs",
    "eval_bound",
    "effective_bits",
    "analyze_module_ranges",
    "render_ranges",
    "INT_DTYPES",
    "FLOAT_ORDER",
]

#: Fixed-width integer dtype tokens and their representable value ranges.
INT_DTYPES = {
    "u8": (0, 2**8 - 1),
    "u16": (0, 2**16 - 1),
    "u32": (0, 2**32 - 1),
    "u64": (0, 2**64 - 1),
    "i8": (-(2**7), 2**7 - 1),
    "i16": (-(2**15), 2**15 - 1),
    "i32": (-(2**31), 2**31 - 1),
    "i64": (-(2**63), 2**63 - 1),
}

#: Float dtype tokens, widest first; converting rightwards loses precision.
FLOAT_ORDER = ("f64", "f32", "f16")

#: All dtype tokens a spec may name.  ``int`` is an unbounded python int;
#: ``bool`` is tracked but never overflow-checked.
_DTYPE_TOKENS = set(INT_DTYPES) | set(FLOAT_ORDER) | {"int", "bool"}

#: numpy dtype spellings -> spec tokens (``np.uint64``, ``"float32"``...).
_NUMPY_DTYPES = {
    "uint8": "u8",
    "uint16": "u16",
    "uint32": "u32",
    "uint64": "u64",
    "int8": "i8",
    "int16": "i16",
    "int32": "i32",
    "int64": "i64",
    "intp": "i64",
    "int_": "i64",
    "float16": "f16",
    "half": "f16",
    "float32": "f32",
    "single": "f32",
    "float64": "f64",
    "double": "f64",
    "bool": "bool",
    "bool_": "bool",
}

#: Exponent cap for interval ``**``/``<<``: beyond this the result is
#: treated as unbounded instead of materializing astronomically large ints.
_MAX_EXPONENT = 4096

_ENTRY_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)\s*:\s*(.+?)\s*$"
)


# ----------------------------------------------------------------------
# Intervals
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` means unbounded on that side."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def is_nonneg(self) -> bool:
        """Whether every value in the interval is known ``>= 0``."""
        return self.lo is not None and self.lo >= 0

    def format(self) -> str:
        """Render as ``[lo, hi]`` with ``*`` for unbounded sides."""
        lo = "*" if self.lo is None else str(self.lo)
        hi = "*" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _add(a: Interval, b: Interval) -> Interval:
    lo = a.lo + b.lo if a.lo is not None and b.lo is not None else None
    hi = a.hi + b.hi if a.hi is not None and b.hi is not None else None
    return Interval(lo, hi)


def _sub(a: Interval, b: Interval) -> Interval:
    lo = a.lo - b.hi if a.lo is not None and b.hi is not None else None
    hi = a.hi - b.lo if a.hi is not None and b.lo is not None else None
    return Interval(lo, hi)


def _mul(a: Interval, b: Interval) -> Interval:
    bounds = (a.lo, a.hi, b.lo, b.hi)
    if all(bound is not None for bound in bounds):
        products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return Interval(min(products), max(products))
    if a.is_nonneg() and b.is_nonneg():
        return Interval(a.lo * b.lo, None)
    return Interval(None, None)


def _floordiv(a: Interval, b: Interval) -> Interval:
    # Only the nonneg // positive case the packing code uses.
    if not a.is_nonneg() or b.lo is None or b.lo < 1:
        return Interval(None, None)
    lo = a.lo // b.hi if b.hi is not None else 0
    hi = a.hi // b.lo if a.hi is not None else None
    return Interval(lo, hi)


def _mod(a: Interval, b: Interval) -> Interval:
    # Python/numpy % takes the divisor's sign: positive divisor -> [0, d-1].
    if b.lo is None or b.lo < 1:
        return Interval(None, None)
    hi = b.hi - 1 if b.hi is not None else None
    if a.is_nonneg() and a.hi is not None and hi is not None:
        hi = min(hi, a.hi)
    return Interval(0, hi)


def _pow2(exponent: Interval) -> Interval:
    """The interval of ``2**e`` for a nonneg exponent interval."""
    if exponent.lo is None or exponent.lo < 0:
        return Interval(None, None)
    lo = 2**exponent.lo
    hi = (
        2**exponent.hi
        if exponent.hi is not None and exponent.hi <= _MAX_EXPONENT
        else None
    )
    return Interval(lo, hi)


def _shl(a: Interval, b: Interval) -> Interval:
    return _mul(a, _pow2(b))


def _shr(a: Interval, b: Interval) -> Interval:
    if not a.is_nonneg() or b.lo is None or b.lo < 0:
        return Interval(None, None)
    lo = a.lo >> b.hi if b.hi is not None and b.hi <= _MAX_EXPONENT else 0
    hi = a.hi >> b.lo if a.hi is not None else None
    return Interval(lo, hi)


def _pow(a: Interval, b: Interval) -> Interval:
    if not a.is_nonneg() or b.lo is None or b.lo < 0:
        return Interval(None, None)
    lo = a.lo**b.lo
    hi = (
        a.hi**b.hi
        if a.hi is not None
        and b.hi is not None
        and b.hi <= _MAX_EXPONENT
        else None
    )
    return Interval(lo, hi)


def _or_upper(a: Interval, b: Interval) -> Optional[int]:
    """Upper bound of ``a | b`` for nonneg operands: all-ones of the wider."""
    if a.hi is None or b.hi is None:
        return None
    return (1 << max(a.hi.bit_length(), b.hi.bit_length())) - 1


def _bitor(a: Interval, b: Interval) -> Interval:
    if not (a.is_nonneg() and b.is_nonneg()):
        return Interval(None, None)
    return Interval(max(a.lo, b.lo), _or_upper(a, b))


def _bitxor(a: Interval, b: Interval) -> Interval:
    if not (a.is_nonneg() and b.is_nonneg()):
        return Interval(None, None)
    return Interval(0, _or_upper(a, b))


def _bitand(a: Interval, b: Interval) -> Interval:
    # x & m <= min(x, m) whenever either operand is known nonneg-bounded.
    candidates = []
    for side in (a, b):
        if side.is_nonneg() and side.hi is not None:
            candidates.append(side.hi)
    if not candidates:
        return Interval(None, None)
    return Interval(0, min(candidates))


def _hull(a: Optional[Interval], b: Optional[Interval]) -> Optional[Interval]:
    """Smallest interval containing both; ``None`` absorbs everything."""
    if a is None or b is None:
        return None
    lo = min(a.lo, b.lo) if a.lo is not None and b.lo is not None else None
    hi = max(a.hi, b.hi) if a.hi is not None and b.hi is not None else None
    return Interval(lo, hi)


def _intersect(a: Interval, b: Interval) -> Interval:
    los = [x for x in (a.lo, b.lo) if x is not None]
    his = [x for x in (a.hi, b.hi) if x is not None]
    return Interval(max(los) if los else None, min(his) if his else None)


def _arange_interval(
    start: Optional[Interval],
    stop: Optional[Interval],
    step: Optional[Interval],
) -> Optional[Interval]:
    """Values of ``np.arange(start, stop, step)``; None unless the step is
    known positive.  Constant arguments give the exact last element."""
    if start is None or stop is None or step is None:
        return None
    if step.lo is None or step.lo < 1:
        return None
    exact = start.lo == start.hi and stop.lo == stop.hi and step.lo == step.hi
    if exact and start.lo is not None and stop.lo is not None:
        if stop.lo > start.lo:
            last = start.lo + (stop.lo - 1 - start.lo) // step.lo * step.lo
            return Interval(start.lo, last)
    return Interval(start.lo, stop.hi - 1 if stop.hi is not None else None)


def effective_bits(interval: Interval) -> Optional[int]:
    """Bits needed to represent every value in ``interval`` (unsigned view).

    Returns None when either side is unbounded; negative lows count their
    magnitude so the answer is a container-width lower bound either way.
    """
    if interval.lo is None or interval.hi is None:
        return None
    magnitude = max(abs(interval.lo), abs(interval.hi))
    return max(1, magnitude.bit_length())


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class BitsSpec:
    """One declared entry: an optional dtype plus optional bound expressions.

    Bounds are kept as source text and evaluated lazily against the
    environment of the function (or call site) using them, so symbolic
    contracts like ``2**bits - 1`` stay exact per caller.
    """

    dtype: Optional[str] = None
    lo: Optional[str] = None
    hi: Optional[str] = None

    def to_json(self) -> list:
        """Serializable form (cache storage)."""
        return [self.dtype, self.lo, self.hi]

    @staticmethod
    def from_json(record: list) -> "BitsSpec":
        """Rebuild from :meth:`to_json` output."""
        return BitsSpec(*record)


@dataclasses.dataclass(frozen=True)
class BitsFunctionSpec:
    """The full ``Bits:`` contract of one function."""

    name: str
    line: int
    entries: tuple  # of (name, BitsSpec); includes "return" and self.* names

    def entry_map(self) -> dict:
        """Entries keyed by name."""
        return dict(self.entries)

    def to_json(self) -> dict:
        """Serializable form (cache storage)."""
        return {
            "name": self.name,
            "line": self.line,
            "entries": [[n, s.to_json()] for n, s in self.entries],
        }

    @staticmethod
    def from_json(record: dict) -> "BitsFunctionSpec":
        """Rebuild from :meth:`to_json` output."""
        return BitsFunctionSpec(
            record["name"],
            int(record["line"]),
            tuple(
                (name, BitsSpec.from_json(spec))
                for name, spec in record["entries"]
            ),
        )


_ALLOWED_BOUND_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.BitOr, ast.BitAnd, ast.BitXor,
)


def _validate_bound(text: str) -> None:
    """Raise ValueError unless ``text`` is a supported bound expression."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as error:
        raise ValueError(f"bad bound expression {text!r}: {error.msg}")
    for node in ast.walk(tree.body):
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int) or isinstance(node.value, bool):
                raise ValueError(
                    f"bound {text!r} uses a non-integer constant"
                )
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_BOUND_OPS):
                raise ValueError(f"bound {text!r} uses an unsupported operator")
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, ast.USub):
                raise ValueError(f"bound {text!r} uses an unsupported operator")
        elif isinstance(node, (ast.Name, ast.Attribute, ast.Load)):
            continue
        elif isinstance(node, _ALLOWED_BOUND_OPS + (ast.USub,)):
            continue
        else:
            raise ValueError(
                f"bound {text!r} must be an integer expression over "
                "declared names"
            )


def parse_bits_entry(text: str) -> BitsSpec:
    """Parse one entry body (everything after ``name:``)."""
    text = text.strip()
    if text == "any":
        return BitsSpec()
    dtype = None
    if not text.startswith("["):
        head, bracket, rest = text.partition("[")
        head = head.strip()
        if head not in _DTYPE_TOKENS:
            raise ValueError(f"unknown dtype token {head!r}")
        dtype = head
        text = (bracket + rest).strip() if bracket else ""
    if not text:
        return BitsSpec(dtype=dtype)
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"cannot parse bits spec {text!r}")
    inner = text[1:-1]
    parts = inner.split(",")
    if len(parts) != 2:
        raise ValueError(f"interval {text!r} must have exactly two bounds")
    bounds: list = []
    for part in parts:
        part = part.strip()
        if not part:
            raise ValueError(f"interval {text!r} has an empty bound")
        if part == "*":
            bounds.append(None)
        else:
            _validate_bound(part)
            bounds.append(part)
    return BitsSpec(dtype=dtype, lo=bounds[0], hi=bounds[1])


def parse_bits_docstring(
    docstring: Optional[str], name: str, line: int
) -> Optional[BitsFunctionSpec]:
    """Extract the ``Bits:``/``Ranges:`` section of a docstring, if present.

    Raises ``ValueError`` on a malformed section so annotation typos fail
    loudly instead of silently disabling checks.
    """
    if not docstring or not ("Bits:" in docstring or "Ranges:" in docstring):
        return None
    lines = docstring.splitlines()
    start = next(
        (
            i
            for i, ln in enumerate(lines)
            if ln.strip() in ("Bits:", "Ranges:")
        ),
        None,
    )
    if start is None:
        return None  # incidental prose mention, not a section header
    entries: list = []
    for ln in lines[start + 1 :]:
        if not ln.strip():
            break
        match = _ENTRY_RE.match(ln)
        if not match:
            raise ValueError(f"{name}: bad Bits entry {ln.strip()!r}")
        entry_name, body = match.group(1), match.group(2)
        try:
            entries.append((entry_name, parse_bits_entry(body)))
        except ValueError as error:
            raise ValueError(f"{name}: {error}")
    return BitsFunctionSpec(name, line, tuple(entries))


def collect_bits_specs(tree: ast.Module) -> tuple:
    """All ``Bits:`` specs in a module: ``(qualname -> spec, error list)``."""
    specs: dict = {}
    errors: list = []

    def visit(body: Iterable[ast.AST], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                try:
                    spec = parse_bits_docstring(
                        ast.get_docstring(node), qualname, node.lineno
                    )
                except ValueError as error:
                    errors.append([node.lineno, str(error)])
                    spec = None
                if spec is not None:
                    specs[qualname] = spec
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")

    visit(tree.body, "")
    return specs, errors


# ----------------------------------------------------------------------
# Bound evaluation
# ----------------------------------------------------------------------
_BOUND_OPS = {
    ast.Add: _add,
    ast.Sub: _sub,
    ast.Mult: _mul,
    ast.FloorDiv: _floordiv,
    ast.Mod: _mod,
    ast.Pow: _pow,
    ast.LShift: _shl,
    ast.RShift: _shr,
    ast.BitOr: _bitor,
    ast.BitAnd: _bitand,
    ast.BitXor: _bitxor,
}


def eval_bound(text: Optional[str], env: dict) -> Interval:
    """Evaluate a bound expression to an interval under ``env``.

    ``env`` maps (possibly dotted) names to :class:`Interval`; unknown
    names yield the unbounded interval, keeping the analysis one-sided.
    """
    if text is None:
        return Interval(None, None)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return Interval(None, None)

    def walk(node: ast.AST) -> Interval:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Interval(node.value, node.value)
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = astutil.dotted_name(node)
            if dotted in env:
                return env[dotted]
            return Interval(None, None)
        if isinstance(node, ast.BinOp):
            op = _BOUND_OPS.get(type(node.op))
            if op is None:
                return Interval(None, None)
            return op(walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = walk(node.operand)
            lo = -inner.hi if inner.hi is not None else None
            hi = -inner.lo if inner.lo is not None else None
            return Interval(lo, hi)
        return Interval(None, None)

    return walk(tree.body)


def spec_interval(spec: BitsSpec, env: dict) -> Optional[Interval]:
    """Declared interval of one entry under ``env`` (None when unbounded).

    Explicit bounds win; a fixed-width integer dtype with no explicit
    bounds contributes its representable range.
    """
    if spec.lo is not None or spec.hi is not None:
        lo = eval_bound(spec.lo, env) if spec.lo is not None else None
        hi = eval_bound(spec.hi, env) if spec.hi is not None else None
        return Interval(
            lo.lo if lo is not None else None,
            hi.hi if hi is not None else None,
        )
    if spec.dtype in INT_DTYPES:
        dtype_lo, dtype_hi = INT_DTYPES[spec.dtype]
        return Interval(dtype_lo, dtype_hi)
    return None


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RangeValue:
    """One point in the range lattice.

    ``interval`` is the value interval (None = unknown); ``dtype`` the
    container dtype token.
    """

    interval: Optional[Interval] = None
    dtype: Optional[str] = None


RANGE_UNKNOWN = RangeValue()


def _is_unsigned(dtype: Optional[str]) -> bool:
    return dtype in ("u8", "u16", "u32", "u64")


def _known_nonneg(value: RangeValue) -> bool:
    if value.interval is not None and value.interval.is_nonneg():
        return True
    return _is_unsigned(value.dtype)


def _coerced_interval(value: RangeValue) -> Optional[Interval]:
    """The interval usable for arithmetic, widening unsigned unknowns to
    their container's nonneg range so masks like ``& 0xFFFF`` stay bounded.
    """
    if value.interval is not None:
        return value.interval
    if value.dtype in INT_DTYPES:
        lo, hi = INT_DTYPES[value.dtype]
        if lo == 0:
            return Interval(0, hi)
    return None


def _dtype_from_node(node: ast.AST) -> Optional[str]:
    name = astutil.dotted_name(node)
    if name is not None:
        return _NUMPY_DTYPES.get(name.split(".")[-1])
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _NUMPY_DTYPES.get(node.value)
    return None


def _promote(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Container dtype of a binary op; only certain when both sides agree."""
    if a == b:
        return a
    if a is None:
        return b
    if b is None:
        return a
    return None  # mixed-dtype promotion: stay silent rather than guess


_BINOP_EVAL = {
    ast.Add: _add,
    ast.Sub: _sub,
    ast.Mult: _mul,
    ast.FloorDiv: _floordiv,
    ast.Mod: _mod,
    ast.Pow: _pow,
    ast.LShift: _shl,
    ast.RShift: _shr,
    ast.BitOr: _bitor,
    ast.BitAnd: _bitand,
    ast.BitXor: _bitxor,
}

#: Operators whose result can exceed the container width (checked);
#: ``>>``, ``&``, ``%``, ``//`` only shrink nonneg operands.
_OVERFLOWABLE = (ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.LShift, ast.BitOr,
                 ast.BitXor)


class _RangeAnalyzer:
    """Interprets one ``Bits:``-annotated function body."""

    def __init__(self, project, summary, context, qualname, spec, node,
                 constants):
        self.project = project
        self.summary = summary
        self.context = context
        self.qualname = qualname
        self.spec = spec
        self.node = node
        self.env: dict[str, RangeValue] = {}
        self.diagnostics: list[Diagnostic] = []
        self._emitted: set = set()
        self._loop_depth = 0
        self.return_interval: Optional[Interval] = None
        self.declared: dict[str, Optional[Interval]] = {}
        self._seed(constants)

    def _seed(self, constants: dict) -> None:
        for name, interval in constants.items():
            self.env[name] = RangeValue(interval=interval, dtype="int")
        entries = self.spec.entry_map()
        # Two passes so forward references between entries resolve.
        for _ in range(2):
            bound_env = {
                name: value.interval
                for name, value in self.env.items()
                if value.interval is not None
            }
            for name, entry in entries.items():
                interval = spec_interval(entry, bound_env)
                if name != "return":
                    self.env[name] = RangeValue(
                        interval=interval, dtype=entry.dtype
                    )
                self.declared[name] = interval

    # ------------------------------------------------------------------
    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", self.node.lineno)
        col = getattr(node, "col_offset", 0)
        key = (rule_id, line, message)
        if key in self._emitted:
            return
        self._emitted.add(key)
        if self.context.is_suppressed(rule_id, line):
            return
        self.diagnostics.append(
            Diagnostic(rule_id, self.summary.path, line, col, message)
        )

    def run(self) -> None:
        """Interpret the body under the spec-seeded environment."""
        self.exec_body(self.node.body)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_body(self, body) -> None:
        for statement in body:
            self.exec_stmt(statement)

    def exec_stmt(self, statement: ast.AST) -> None:
        if isinstance(statement, ast.Assign):
            value = self.eval(statement.value)
            for target in statement.targets:
                self.assign(target, value)
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            self.assign(statement.target, self.eval(statement.value))
        elif isinstance(statement, ast.AugAssign):
            value = self.eval(
                ast.BinOp(statement.target, statement.op, statement.value)
            )
            self.assign(statement.target, value, hull=True)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                self.check_return(statement)
        elif isinstance(statement, ast.Expr):
            self.eval(statement.value)
        elif isinstance(statement, (ast.If, ast.While, ast.With)):
            if isinstance(statement, ast.While):
                self.eval(statement.test)
            if isinstance(statement, ast.If):
                self.eval(statement.test)
            self.exec_body(statement.body)
            self.exec_body(getattr(statement, "orelse", []))
        elif isinstance(statement, ast.For):
            self.assign(statement.target, self._loop_value(statement.iter))
            # Two passes: the second sees first-iteration accumulator state,
            # catching one-step accumulate overflow; dedup keeps one report.
            self._loop_depth += 1
            self.exec_body(statement.body)
            self.exec_body(statement.body)
            self._loop_depth -= 1
            self.exec_body(statement.orelse)
        elif isinstance(statement, ast.Try):
            self.exec_body(statement.body)
            for handler in statement.handlers:
                self.exec_body(handler.body)
            self.exec_body(statement.orelse)
            self.exec_body(statement.finalbody)
        # Nested defs/classes are opaque: their calls evaluate to unknown.

    def _loop_value(self, iter_node: ast.AST) -> RangeValue:
        """Abstract value of a for-loop target."""
        if isinstance(iter_node, ast.Call):
            name = astutil.call_name(iter_node)
            if name == "range" and iter_node.args:
                stop = self.eval(iter_node.args[-1])
                start = (
                    self.eval(iter_node.args[0])
                    if len(iter_node.args) >= 2
                    else RangeValue(interval=Interval(0, 0))
                )
                if stop.interval is not None:
                    lo = start.interval.lo if start.interval else None
                    hi = (
                        stop.interval.hi - 1
                        if stop.interval.hi is not None
                        else None
                    )
                    return RangeValue(interval=Interval(lo, hi), dtype="int")
                return RANGE_UNKNOWN
        element = self.eval(iter_node)
        if element.interval is not None or element.dtype is not None:
            return RangeValue(element.interval, element.dtype)
        return RANGE_UNKNOWN

    def assign(self, target: ast.AST, value: RangeValue, hull: bool = False):
        if isinstance(target, ast.Name):
            if hull and target.id in self.env:
                old = self.env[target.id]
                value = RangeValue(
                    _hull(old.interval, value.interval),
                    value.dtype or old.dtype,
                )
            self.env[target.id] = value
        elif isinstance(target, ast.Subscript):
            # Slice/element store: values are cast into the base container.
            base_node = target.value
            if isinstance(base_node, ast.Name):
                base = self.env.get(base_node.id, RANGE_UNKNOWN)
                self._check_store_cast(target, base, value)
                self.env[base_node.id] = RangeValue(
                    _hull(base.interval, value.interval), base.dtype
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env[element.id] = RANGE_UNKNOWN

    def _check_store_cast(
        self, node: ast.AST, base: RangeValue, value: RangeValue
    ) -> None:
        if base.dtype not in INT_DTYPES or value.interval is None:
            return
        lo, hi = INT_DTYPES[base.dtype]
        iv = value.interval
        if (iv.hi is not None and iv.hi > hi) or (
            iv.lo is not None and iv.lo < lo
        ):
            self.report(
                "wp-lossy-cast",
                node,
                f"{self.qualname}: storing values in {iv.format()} into a "
                f"{base.dtype} array loses bits "
                f"(container holds [{lo}, {hi}])",
            )

    def check_return(self, statement: ast.Return) -> None:
        value = self.eval(statement.value)
        if value.interval is not None:
            self.return_interval = _hull(
                self.return_interval, value.interval
            ) if self.return_interval is not None else value.interval
        declared = self.declared.get("return")
        entry = self.spec.entry_map().get("return")
        if declared is not None and value.interval is not None:
            iv = value.interval
            if (
                declared.hi is not None
                and iv.hi is not None
                and iv.hi > declared.hi
            ) or (
                declared.lo is not None
                and iv.lo is not None
                and iv.lo < declared.lo
            ):
                self.report(
                    "wp-bits-spec-violation",
                    statement,
                    f"{self.qualname} returns values in {iv.format()} but "
                    f"its Bits section declares {declared.format()}",
                )
        if (
            entry is not None
            and entry.dtype in INT_DTYPES
            and value.dtype in INT_DTYPES
            and value.dtype != entry.dtype
        ):
            self.report(
                "wp-bits-spec-violation",
                statement,
                f"{self.qualname} returns {value.dtype} but its Bits "
                f"section declares {entry.dtype}",
            )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval(self, node: ast.AST) -> RangeValue:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, RANGE_UNKNOWN)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return RangeValue(
                    interval=Interval(int(node.value), int(node.value)),
                    dtype="bool",
                )
            if isinstance(node.value, int):
                return RangeValue(
                    interval=Interval(node.value, node.value), dtype="int"
                )
            return RANGE_UNKNOWN
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node)
        if isinstance(node, ast.Subscript):
            return self.eval_subscript(node)
        if isinstance(node, ast.BinOp):
            return self.eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand)
            if isinstance(node.op, ast.USub) and inner.interval is not None:
                iv = inner.interval
                lo = -iv.hi if iv.hi is not None else None
                hi = -iv.lo if iv.lo is not None else None
                return RangeValue(Interval(lo, hi), inner.dtype)
            return RANGE_UNKNOWN
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.IfExp):
            left, right = self.eval(node.body), self.eval(node.orelse)
            return RangeValue(
                _hull(left.interval, right.interval),
                _promote(left.dtype, right.dtype),
            )
        if isinstance(node, ast.Compare):
            for operand in [node.left] + list(node.comparators):
                self.eval(operand)
            return RangeValue(interval=Interval(0, 1), dtype="bool")
        return RANGE_UNKNOWN

    def eval_attribute(self, node: ast.Attribute) -> RangeValue:
        dotted = astutil.dotted_name(node)
        if dotted is not None and dotted in self.env:
            return self.env[dotted]
        if node.attr == "size":
            return RangeValue(interval=Interval(0, None), dtype="int")
        if node.attr == "T":
            return self.eval(node.value)
        return RANGE_UNKNOWN

    def _is_expand_index(self, index: ast.AST) -> bool:
        """Whether a subscript only slices/expands (``x[:, None]``)."""
        items = index.elts if isinstance(index, ast.Tuple) else [index]
        for item in items:
            if isinstance(item, ast.Slice):
                continue
            if isinstance(item, ast.Constant) and item.value is None:
                continue
            if isinstance(item, ast.Constant) and item.value is Ellipsis:
                continue
            return False
        return True

    def eval_subscript(self, node: ast.Subscript) -> RangeValue:
        base = self.eval(node.value)
        index = node.slice
        if self._is_expand_index(index):
            return base  # pure slice/newaxis: same values
        index_nodes = (
            list(index.elts) if isinstance(index, ast.Tuple) else [index]
        )
        for item in index_nodes:
            self.eval(item)
        return RangeValue(base.interval, base.dtype)

    def eval_binop(self, node: ast.BinOp) -> RangeValue:
        left, right = self.eval(node.left), self.eval(node.right)
        op = _BINOP_EVAL.get(type(node.op))
        if op is None:
            return RANGE_UNKNOWN
        lhs, rhs = _coerced_interval(left), _coerced_interval(right)
        if lhs is None or rhs is None:
            return RangeValue(dtype=_promote(left.dtype, right.dtype))
        result = op(lhs, rhs)
        dtype = _promote(left.dtype, right.dtype)
        if (
            dtype in INT_DTYPES
            and isinstance(node.op, _OVERFLOWABLE)
            and result is not None
        ):
            lo, hi = INT_DTYPES[dtype]
            exceeds_hi = result.hi is not None and result.hi > hi
            exceeds_lo = result.lo is not None and result.lo < lo
            if exceeds_hi or exceeds_lo:
                needed = effective_bits(result)
                width = (
                    f"{needed} bits" if needed is not None else "unbounded"
                )
                self.report(
                    "wp-int-overflow",
                    node,
                    f"{self.qualname}: result interval {result.format()} "
                    f"needs {width} but {dtype} holds [{lo}, {hi}]; "
                    "the container can silently wrap",
                )
                # Known-bad: drop to unknown so one bug reports once.
                return RangeValue(dtype=dtype)
        return RangeValue(result, dtype)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _dtype_keyword(self, node: ast.Call) -> Optional[str]:
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                return _dtype_from_node(keyword.value)
        return None

    def _cast(self, node: ast.AST, value: RangeValue, target: str) -> RangeValue:
        """Model ``astype``/dtype-constructor casts, reporting lossy ones."""
        if target in INT_DTYPES:
            lo, hi = INT_DTYPES[target]
            iv = value.interval
            if iv is not None and (
                (iv.hi is not None and iv.hi > hi)
                or (iv.lo is not None and iv.lo < lo)
            ):
                self.report(
                    "wp-lossy-cast",
                    node,
                    f"{self.qualname}: cast to {target} from interval "
                    f"{iv.format()} loses bits (container holds "
                    f"[{lo}, {hi}])",
                )
                return RangeValue(dtype=target)
            return RangeValue(iv, target)
        if target in FLOAT_ORDER:
            source = value.dtype
            if (
                source in FLOAT_ORDER
                and FLOAT_ORDER.index(target) > FLOAT_ORDER.index(source)
            ):
                self.report(
                    "wp-lossy-cast",
                    node,
                    f"{self.qualname}: narrowing {source} value to {target} "
                    "loses precision; keep scale/zero math in the wider "
                    "float or justify with a pragma",
                )
        return RangeValue(value.interval, target)

    def eval_call(self, node: ast.Call) -> RangeValue:
        numpy_name = astutil.numpy_call_name(node)
        if numpy_name is not None:
            return self.eval_numpy_call(node, numpy_name)
        if isinstance(node.func, ast.Attribute):
            method = self.eval_method_call(node)
            if method is not None:
                return method
        name = astutil.call_name(node)
        if name is None:
            for arg in node.args:
                self.eval(arg)
            return RANGE_UNKNOWN
        if name == "len" and len(node.args) == 1:
            self.eval(node.args[0])
            return RangeValue(Interval(0, None), "int")
        if name in ("min", "max") and len(node.args) >= 2:
            values = [self.eval(arg) for arg in node.args]
            intervals = [v.interval for v in values]
            if all(iv is not None for iv in intervals):
                merge = min if name == "min" else max
                los = [iv.lo for iv in intervals]
                his = [iv.hi for iv in intervals]
                lo = merge(los) if all(x is not None for x in los) else None
                hi = merge(his) if all(x is not None for x in his) else None
                return RangeValue(Interval(lo, hi), "int")
            return RANGE_UNKNOWN
        if name == "int" and node.args:
            value = self.eval(node.args[0])
            return RangeValue(value.interval, "int")
        if name == "abs" and node.args:
            value = self.eval(node.args[0])
            if value.interval is not None:
                iv = value.interval
                if iv.lo is not None and iv.hi is not None:
                    bound = max(abs(iv.lo), abs(iv.hi))
                    lo = 0 if iv.lo < 0 <= iv.hi else min(abs(iv.lo), abs(iv.hi))
                    return RangeValue(Interval(lo, bound), value.dtype)
            return RANGE_UNKNOWN
        resolved = self._resolve_bits_call(name)
        if resolved is not None:
            return self.check_project_call(node, *resolved)
        for arg in node.args:
            self.eval(arg)
        return RANGE_UNKNOWN

    def _resolve_bits_call(self, name: str):
        """Resolve a call to another ``Bits:``-annotated function."""
        if name.startswith("self.") and "." in self.qualname:
            cls = self.qualname.rsplit(".", 1)[0]
            method = f"{cls}.{name[len('self.'):]}"
            spec = self.summary.bit_specs.get(method)
            if spec is not None:
                return self.summary.module, method, spec
            return None
        return self.project.resolve_function(self.summary.module, name)

    def eval_numpy_call(self, node: ast.Call, numpy_name: str) -> RangeValue:
        args = node.args
        dtype_kw = self._dtype_keyword(node)
        if numpy_name == "arange" and args:
            # numpy reads arange(stop) and arange(start, stop[, step]).
            bounds = [self.eval(arg).interval for arg in args[:3]]
            if len(bounds) == 1:
                bounds.insert(0, Interval(0, 0))
            step = bounds[2] if len(bounds) == 3 else Interval(1, 1)
            for keyword in node.keywords:
                if keyword.arg == "step":
                    step = self.eval(keyword.value).interval
            return RangeValue(
                _arange_interval(bounds[0], bounds[1], step), dtype_kw or "i64"
            )
        if numpy_name in ("zeros", "ones", "empty", "full"):
            fill = None
            if numpy_name == "zeros":
                fill = Interval(0, 0)
            elif numpy_name == "ones":
                fill = Interval(1, 1)
            elif numpy_name == "full" and len(args) >= 2:
                fill = self.eval(args[1]).interval
            if args:
                self.eval(args[0])
            return RangeValue(fill, dtype_kw or "f64")
        if numpy_name in ("asarray", "array") and args:
            value = self.eval(args[0])
            if dtype_kw is not None:
                return self._cast(node, value, dtype_kw)
            return value
        if numpy_name in ("clip",) and len(args) >= 3:
            value = self.eval(args[0])
            lo_v, hi_v = self.eval(args[1]), self.eval(args[2])
            window = Interval(
                lo_v.interval.lo if lo_v.interval is not None else None,
                hi_v.interval.hi if hi_v.interval is not None else None,
            )
            base = value.interval or Interval(None, None)
            return RangeValue(_intersect(base, window), value.dtype)
        if numpy_name in ("minimum", "maximum") and len(args) == 2:
            left, right = self.eval(args[0]), self.eval(args[1])
            if left.interval is not None and right.interval is not None:
                merge = min if numpy_name == "minimum" else max
                a, b = left.interval, right.interval
                lo = merge(a.lo, b.lo) if a.lo is not None and b.lo is not None else None
                hi = merge(a.hi, b.hi) if a.hi is not None and b.hi is not None else None
                return RangeValue(
                    Interval(lo, hi), _promote(left.dtype, right.dtype)
                )
            return RANGE_UNKNOWN
        if numpy_name in ("where",) and len(args) == 3:
            self.eval(args[0])
            left, right = self.eval(args[1]), self.eval(args[2])
            return RangeValue(
                _hull(left.interval, right.interval),
                _promote(left.dtype, right.dtype),
            )
        if numpy_name in ("concatenate", "stack", "hstack") and args:
            parts = (
                args[0].elts
                if isinstance(args[0], (ast.Tuple, ast.List))
                else args
            )
            interval = None
            dtype = None
            first = True
            for part in parts:
                value = self.eval(part)
                if first:
                    interval, dtype, first = value.interval, value.dtype, False
                else:
                    interval = _hull(interval, value.interval)
                    dtype = _promote(dtype, value.dtype)
            return RangeValue(interval, dtype)
        if numpy_name in ("bitwise_or.reduce", "bitwise_or.reduceat") and args:
            value = self.eval(args[0])
            for arg in args[1:]:
                self.eval(arg)
            if value.interval is not None and _known_nonneg(value):
                iv = value.interval
                hi = (
                    (1 << iv.hi.bit_length()) - 1
                    if iv.hi is not None
                    else None
                )
                return RangeValue(Interval(iv.lo, hi), value.dtype)
            return RangeValue(dtype=value.dtype)
        if numpy_name in ("argsort", "flatnonzero") and args:
            self.eval(args[0])
            return RangeValue(Interval(0, None), "i64")
        if numpy_name in _NUMPY_DTYPES and args:
            value = self.eval(args[0])
            return self._cast(node, value, _NUMPY_DTYPES[numpy_name])
        for arg in args:
            self.eval(arg)
        return RANGE_UNKNOWN

    def eval_method_call(self, node: ast.Call) -> Optional[RangeValue]:
        method = node.func.attr
        if method == "astype" and node.args:
            base = self.eval(node.func.value)
            target = _dtype_from_node(node.args[0])
            if target is not None:
                return self._cast(node, base, target)
            return RangeValue(base.interval, None)
        if method in ("copy", "ravel", "flatten", "item"):
            base = self.eval(node.func.value)
            return RangeValue(base.interval, base.dtype)
        if method == "reshape":
            base = self.eval(node.func.value)
            for arg in node.args:
                self.eval(arg)
            return RangeValue(base.interval, base.dtype)
        if method in ("max", "min", "sum"):
            base = self.eval(node.func.value)
            if method == "sum":
                return RangeValue(dtype=base.dtype)
            return RangeValue(base.interval, base.dtype)
        dotted = astutil.dotted_name(node.func)
        if dotted is not None and dotted.startswith("self."):
            resolved = self._resolve_bits_call(dotted)
            if resolved is not None:
                return self.check_project_call(node, *resolved)
        return None

    def check_project_call(
        self, node: ast.Call, callee_module: str, qualname: str, spec
    ) -> RangeValue:
        entries = spec.entry_map()
        # The callee's declared intervals form the base bound environment;
        # caller-supplied argument intervals and the caller's self.* facts
        # override them, so symbolic contracts evaluate per call site.
        bound_env: dict = {}
        for _ in range(2):
            for name, entry in entries.items():
                if name == "return":
                    continue
                declared = spec_interval(entry, bound_env)
                if declared is not None and name not in bound_env:
                    bound_env[name] = declared
        for name, value in self.env.items():
            if name.startswith("self.") and value.interval is not None:
                bound_env[name] = value.interval

        # Positional/keyword arguments checked against declared intervals.
        names = [name for name, _ in spec.entries if name != "return"
                 and not name.startswith("self.")]
        supplied: list = []
        for position, arg in enumerate(node.args):
            if position < len(names):
                supplied.append((names[position], arg))
        for keyword in node.keywords:
            if keyword.arg in entries:
                supplied.append((keyword.arg, keyword.value))
        for param_name, arg_node in supplied:
            value = self.eval(arg_node)
            if value.interval is not None:
                bound_env[param_name] = value.interval
        for param_name, arg_node in supplied:
            value = self.eval(arg_node)
            declared = spec_interval(entries[param_name], bound_env)
            if declared is None or value.interval is None:
                continue
            iv = value.interval
            if (
                declared.hi is not None
                and iv.hi is not None
                and iv.hi > declared.hi
            ) or (
                declared.lo is not None
                and iv.lo is not None
                and iv.lo < declared.lo
            ):
                self.report(
                    "wp-bits-spec-violation",
                    arg_node,
                    f"argument {param_name!r} to {qualname}: declared "
                    f"{declared.format()}, got {iv.format()}",
                )
        returns = entries.get("return")
        if returns is None:
            return RANGE_UNKNOWN
        return RangeValue(spec_interval(returns, bound_env), returns.dtype)


def _module_int_constants(tree: ast.Module) -> dict:
    """Module-level ``NAME = <int literal>`` bindings as exact intervals."""
    constants: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
                and not isinstance(node.value.value, bool)
            ):
                constants[target.id] = Interval(
                    node.value.value, node.value.value
                )
    return constants


def analyze_module_ranges(project, summary, context):
    """Interpret every ``Bits:``-annotated function in one module.

    Returns ``(diagnostics, used_suppressions)``; diagnostics carry the
    driver-managed ids ``wp-int-overflow`` / ``wp-lossy-cast`` /
    ``wp-bits-spec-violation``.
    """
    diagnostics: list = []
    index: dict = {}

    def collect(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index[prefix + node.name] = node
            elif isinstance(node, ast.ClassDef):
                collect(node.body, prefix + node.name + ".")

    collect(context.tree.body, "")
    constants = _module_int_constants(context.tree)
    for qualname, spec in summary.bit_specs.items():
        node = index.get(qualname)
        if node is None:
            continue
        analyzer = _RangeAnalyzer(
            project, summary, context, qualname, spec, node, constants
        )
        analyzer.run()
        diagnostics.extend(analyzer.diagnostics)
    return diagnostics, context.used_suppressions()


# ----------------------------------------------------------------------
# Debug table (--ranges)
# ----------------------------------------------------------------------
def render_ranges(project) -> str:
    """Human-readable declared/inferred range table, one line per entry.

    Runs the interpreter serially over every annotated function (the table
    is a debug aid, not a cached pass) so inferred return intervals are
    shown next to the declared contracts.
    """
    lines: list = []
    for key in sorted(project.records):
        record = project.records[key]
        summary = record.summary
        if summary.is_consumer or not summary.bit_specs:
            continue
        context = record.ensure_context()
        if context is None:
            continue
        index: dict = {}

        def collect(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    index[prefix + node.name] = node
                elif isinstance(node, ast.ClassDef):
                    collect(node.body, prefix + node.name + ".")

        collect(context.tree.body, "")
        constants = _module_int_constants(context.tree)
        for qualname in sorted(
            summary.bit_specs, key=lambda q: summary.bit_specs[q].line
        ):
            spec = summary.bit_specs[qualname]
            env: dict = {}
            for _ in range(2):
                for name, entry in spec.entries:
                    declared = spec_interval(entry, env)
                    if declared is not None:
                        env[name] = declared
            for name, entry in spec.entries:
                declared = spec_interval(entry, env)
                rendered = (
                    declared.format() if declared is not None else "[*, *]"
                )
                dtype = entry.dtype or "?"
                bits = (
                    effective_bits(declared) if declared is not None else None
                )
                width = f" ({bits} bits)" if bits is not None else ""
                lines.append(
                    f"{summary.path}:{spec.line}: "
                    f"{summary.module}.{qualname}: "
                    f"{name}: {dtype} {rendered}{width}"
                )
            node = index.get(qualname)
            if node is None:
                continue
            analyzer = _RangeAnalyzer(
                project, summary, context, qualname, spec, node, constants
            )
            analyzer.run()
            if analyzer.return_interval is not None:
                lines.append(
                    f"{summary.path}:{spec.line}: "
                    f"{summary.module}.{qualname}: "
                    f"return(inferred): {analyzer.return_interval.format()}"
                )
    return "\n".join(lines) if lines else "(no Bits: specs found)"


# ----------------------------------------------------------------------
# Rule registration
# ----------------------------------------------------------------------
class _DriverManagedRule(WholeProgramRule):
    """Registered for identity/--list-rules; executed by the project driver.

    The range pass runs per module inside :meth:`Project.analyze` so its
    results can be cached incrementally; these registry entries only give
    its diagnostics first-class rule ids.
    """

    driver_managed = True

    def check(self, project) -> Iterator[Diagnostic]:
        """Yield nothing; the driver emits this rule's diagnostics."""
        return iter(())


for _rule_id, _summary in (
    (
        "wp-int-overflow",
        "shift/OR/accumulate result interval exceeds its container dtype",
    ),
    (
        "wp-lossy-cast",
        "narrowing cast whose known source interval does not fit the target",
    ),
):
    wprule(_rule_id, _summary)(_DriverManagedRule)


@wprule(
    "wp-bits-spec-violation",
    "code contradicts a declared Bits: contract (or the section is malformed)",
)
def _bits_spec_violation(self: Rule, project) -> Iterator[Diagnostic]:
    for summary in project.summaries(include_consumers=False):
        for line, message in summary.bit_errors:
            yield Diagnostic(self.id, summary.path, line, 0, message)
