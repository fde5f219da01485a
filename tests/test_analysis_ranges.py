"""Integer-range/bit-width pass: seeded violations with pinned anchors.

Each fixture plants exactly one bug class named in the analyzer's contract —
a shift that overflows its u16 container, a float64→float32 narrowing on a
scale path, a return value contradicting its declared ``Bits:`` interval —
and the assertions pin
(rule-id, file, line) so the interpreter cannot silently move or drop the
finding.  Every positive fixture has a negative twin derived by ``.replace``
so the rules are pinned from both sides.
"""

import pytest

from repro.analysis.project import Project
from repro.analysis.ranges import (
    FLOAT_ORDER,
    INT_DTYPES,
    BitsSpec,
    Interval,
    RangeValue,
    effective_bits,
    eval_bound,
    parse_bits_docstring,
    parse_bits_entry,
    render_ranges,
)

RULES = [
    "wp-bits-spec-violation",
    "wp-int-overflow",
    "wp-lossy-cast",
]

PKG = '"""Pkg."""\n__all__ = []\n'


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def load(tmp_path, files):
    root = write_tree(tmp_path, files)
    return root, Project.load([str(root / "repro")])


def hits(diagnostics, rule_id):
    return [
        (d.rule_id, d.path, d.line)
        for d in diagnostics
        if d.rule_id == rule_id
    ]


class TestEntryParser:
    def test_any_is_unconstrained(self):
        assert parse_bits_entry("any") == BitsSpec()

    def test_bare_dtype(self):
        assert parse_bits_entry("u32") == BitsSpec(dtype="u32")

    def test_dtype_with_bounds(self):
        spec = parse_bits_entry("i64[1, 32]")
        assert spec == BitsSpec(dtype="i64", lo="1", hi="32")

    def test_bounds_without_dtype_keep_symbolic_text(self):
        spec = parse_bits_entry("[0, 2**bits - 1]")
        assert spec.dtype is None
        assert spec.lo == "0" and spec.hi == "2**bits - 1"

    def test_star_bound_is_unbounded(self):
        assert parse_bits_entry("i64[0, *]").hi is None

    @pytest.mark.parametrize(
        "body",
        [
            "u99",  # unknown dtype token
            "i64[1]",  # one bound
            "i64[, 3]",  # empty bound
            "[0, 1.5]",  # non-integer constant
            "[0, bits()]",  # calls are not bound expressions
        ],
    )
    def test_malformed_entries_raise(self, body):
        with pytest.raises(ValueError):
            parse_bits_entry(body)


class TestDocstringParser:
    DOC = (
        "Pack codes.\n"
        "\n"
        "Bits:\n"
        "    codes: u64[0, 2**bits - 1]\n"
        "    bits: i64[1, 32]\n"
        "    self.flags: u8\n"
        "    return: u32\n"
        "\n"
        "Trailing prose the parser must not read.\n"
    )

    def test_section_parses_with_dotted_names(self):
        spec = parse_bits_docstring(self.DOC, "pack", 10)
        assert spec.name == "pack" and spec.line == 10
        entries = spec.entry_map()
        assert set(entries) == {"codes", "bits", "self.flags", "return"}
        assert entries["return"] == BitsSpec(dtype="u32")

    def test_ranges_alias(self):
        spec = parse_bits_docstring(
            "Doc.\n\nRanges:\n    n: i64[0, *]\n", "f", 1
        )
        assert "n" in spec.entry_map()

    def test_absent_section_is_none(self):
        assert parse_bits_docstring("Just prose.", "f", 1) is None
        assert parse_bits_docstring(None, "f", 1) is None

    def test_prose_mention_is_not_a_header(self):
        doc = "Counts the Bits: of a word without declaring any.\n"
        assert parse_bits_docstring(doc, "f", 1) is None

    def test_bad_entry_raises_with_function_name(self):
        doc = "Doc.\n\nBits:\n    x: u99\n"
        with pytest.raises(ValueError, match="broken"):
            parse_bits_docstring(doc, "broken", 1)


class TestIntervalMath:
    def test_eval_bound_symbolic(self):
        env = {"bits": Interval(1, 8)}
        assert eval_bound("2**bits - 1", env) == Interval(1, 255)

    def test_eval_bound_unknown_name_is_unbounded(self):
        assert eval_bound("n + 1", {}) == Interval(None, None)

    def test_effective_bits(self):
        assert effective_bits(Interval(0, 255)) == 8
        assert effective_bits(Interval(-128, 127)) == 8
        assert effective_bits(Interval(0, 0)) == 1
        assert effective_bits(Interval(0, None)) is None

    def test_dtype_tables(self):
        assert INT_DTYPES["u32"] == (0, 2**32 - 1)
        assert FLOAT_ORDER[0] == "f64"

    def test_range_value_unknown_by_default(self):
        value = RangeValue()
        assert value.interval is None and value.dtype is None


OVERFLOW = (
    '"""Packing fixture with a u16 shift overflow."""\n'
    "import numpy as np\n"
    "\n"
    '__all__ = ["bad_pack"]\n'
    "\n"
    "\n"
    "def bad_pack(codes):\n"
    '    """Accumulate shifted codes in a u16 container.\n'
    "\n"
    "    Bits:\n"
    "        codes: u16\n"
    "        return: u16\n"
    '    """\n'
    "    acc = np.uint16(0)\n"
    "    acc = acc + (codes << np.uint16(12))\n"
    "    return acc\n"
)

LOSSY = (
    '"""Cast fixture narrowing a scale path."""\n'
    "import numpy as np\n"
    "\n"
    '__all__ = ["narrow_scale", "shrink"]\n'
    "\n"
    "\n"
    "def narrow_scale(scales):\n"
    '    """Quantization scales must stay f64.\n'
    "\n"
    "    Bits:\n"
    "        scales: f64\n"
    "        return: f32\n"
    '    """\n'
    "    return scales.astype(np.float32)\n"
    "\n"
    "\n"
    "def shrink(value):\n"
    '    """Known-wide value crammed into u8.\n'
    "\n"
    "    Bits:\n"
    "        value: i64[0, 300]\n"
    "        return: u8\n"
    '    """\n'
    "    return value.astype(np.uint8)\n"
)

CONTRACT = (
    '"""Contract fixture: return and call argument out of range."""\n'
    "\n"
    '__all__ = ["wide", "caller"]\n'
    "\n"
    "\n"
    "def wide(bits):\n"
    '    """Returns more than declared.\n'
    "\n"
    "    Bits:\n"
    "        bits: i64[1, 4]\n"
    "        return: i64[0, 2**bits - 1]\n"
    '    """\n'
    "    return (1 << bits) + 7\n"
    "\n"
    "\n"
    "def caller():\n"
    '    """Passes an out-of-contract argument.\n'
    "\n"
    "    Bits:\n"
    "        return: any\n"
    '    """\n'
    "    return wide(9)\n"
)

BADSPEC = (
    '"""Fixture with an unparseable Bits section."""\n'
    "\n"
    '__all__ = ["broken"]\n'
    "\n"
    "\n"
    "def broken(x):\n"
    '    """Doc.\n'
    "\n"
    "    Bits:\n"
    "        x: u99[0, 1]\n"
    '    """\n'
    "    return x\n"
)

QCLASS = (
    '"""Method fixture: a self.bits contract resolved across methods."""\n'
    "import numpy as np\n"
    "\n"
    '__all__ = ["Q"]\n'
    "\n"
    "\n"
    "class Q:\n"
    '    """Code holder."""\n'
    "\n"
    "    def codes(self):\n"
    '        """Codes.\n'
    "\n"
    "        Bits:\n"
    "            self.bits: i64[1, 32]\n"
    "            return: i64[0, 2**self.bits - 1]\n"
    '        """\n'
    "        return np.zeros(4, dtype=np.int64)\n"
    "\n"
    "    def byte_codes(self):\n"
    '        """12-bit codes declared as bytes: out of contract.\n'
    "\n"
    "        Bits:\n"
    "            self.bits: i64[1, 12]\n"
    "            return: i64[0, 255]\n"
    '        """\n'
    "        return self.codes()\n"
    "\n"
    "    def byte_codes_ok(self):\n"
    '        """8-bit codes under the same contract: clean.\n'
    "\n"
    "        Bits:\n"
    "            self.bits: i64[1, 8]\n"
    "            return: i64[0, 255]\n"
    '        """\n'
    "        return self.codes()\n"
)

CONSTANTS = (
    '"""Module-constant fixture: _WORD seeds the environment."""\n'
    "\n"
    '__all__ = ["offset"]\n'
    "\n"
    "_WORD = 32\n"
    "\n"
    "\n"
    "def offset(position):\n"
    '    """Bit offset inside a word.\n'
    "\n"
    "    Bits:\n"
    "        position: u64\n"
    "        return: i64[0, 31]\n"
    '    """\n'
    "    return position % _WORD\n"
)


class TestIntOverflow:
    FILES = {"repro/__init__.py": PKG, "repro/packy.py": OVERFLOW}

    def test_u16_shift_overflow_pinned(self, tmp_path):
        root, project = load(tmp_path, self.FILES)
        diags = project.analyze(select=RULES)
        assert hits(diags, "wp-int-overflow") == [
            ("wp-int-overflow", str(root / "repro" / "packy.py"), 15)
        ]
        assert not hits(diags, "wp-lossy-cast")

    def test_right_shift_stays_silent(self, tmp_path):
        files = dict(self.FILES)
        files["repro/packy.py"] = OVERFLOW.replace(
            "codes << np.uint16(12)", "codes >> np.uint16(12)"
        )
        _, project = load(tmp_path, files)
        assert project.analyze(select=RULES) == []

    def test_pragma_suppresses_and_counts_as_used(self, tmp_path):
        files = dict(self.FILES)
        files["repro/packy.py"] = OVERFLOW.replace(
            "acc = acc + (codes << np.uint16(12))",
            "acc = acc + (codes << np.uint16(12))"
            "  # lint: disable=wp-int-overflow",
        )
        _, project = load(tmp_path, files)
        assert project.analyze(select=RULES) == []


class TestLossyCast:
    FILES = {"repro/__init__.py": PKG, "repro/lossy.py": LOSSY}

    def test_float_narrowing_and_int_truncation_pinned(self, tmp_path):
        root, project = load(tmp_path, self.FILES)
        diags = project.analyze(select=RULES)
        path = str(root / "repro" / "lossy.py")
        assert hits(diags, "wp-lossy-cast") == [
            ("wp-lossy-cast", path, 14),
            ("wp-lossy-cast", path, 24),
        ]

    def test_fitting_cast_stays_silent(self, tmp_path):
        files = dict(self.FILES)
        files["repro/lossy.py"] = LOSSY.replace(
            "value: i64[0, 300]", "value: i64[0, 200]"
        ).replace("scales.astype(np.float32)", "scales.astype(np.float64)")
        _, project = load(tmp_path, files)
        diags = project.analyze(select=RULES)
        assert not hits(diags, "wp-lossy-cast")


class TestBitsSpecViolation:
    FILES = {"repro/__init__.py": PKG, "repro/contract.py": CONTRACT}

    def test_return_and_argument_violations_pinned(self, tmp_path):
        root, project = load(tmp_path, self.FILES)
        diags = project.analyze(select=RULES)
        path = str(root / "repro" / "contract.py")
        assert hits(diags, "wp-bits-spec-violation") == [
            ("wp-bits-spec-violation", path, 13),
            ("wp-bits-spec-violation", path, 22),
        ]

    def test_conforming_code_stays_silent(self, tmp_path):
        files = dict(self.FILES)
        files["repro/contract.py"] = CONTRACT.replace(
            "return (1 << bits) + 7", "return (1 << bits) - 1"
        ).replace("return wide(9)", "return wide(3)")
        _, project = load(tmp_path, files)
        assert project.analyze(select=RULES) == []

    def test_self_bits_contract_resolved_across_methods(self, tmp_path):
        root, project = load(
            tmp_path, {"repro/__init__.py": PKG, "repro/qclass.py": QCLASS}
        )
        diags = project.analyze(select=RULES)
        # Q.byte_codes (12-bit codes, declared bytes) fires; Q.byte_codes_ok,
        # whose self.bits caps the same callee contract at 8, stays silent.
        assert hits(diags, "wp-bits-spec-violation") == [
            ("wp-bits-spec-violation", str(root / "repro" / "qclass.py"), 26)
        ]

    def test_unparseable_section_reported(self, tmp_path):
        root, project = load(
            tmp_path, {"repro/__init__.py": PKG, "repro/badspec.py": BADSPEC}
        )
        diags = project.analyze(select=RULES)
        assert hits(diags, "wp-bits-spec-violation") == [
            ("wp-bits-spec-violation", str(root / "repro" / "badspec.py"), 6)
        ]
        assert "u99" in diags[0].message

    def test_module_constants_seed_the_environment(self, tmp_path):
        files = {"repro/__init__.py": PKG, "repro/consts.py": CONSTANTS}
        _, project = load(tmp_path, files)
        assert project.analyze(select=RULES) == []
        # Tightening the declared return below what % _WORD can produce
        # must contradict the contract.
        files["repro/consts.py"] = CONSTANTS.replace(
            "return: i64[0, 31]", "return: i64[0, 15]"
        )
        _, project = load(tmp_path, files)
        diags = project.analyze(select=RULES)
        assert len(hits(diags, "wp-bits-spec-violation")) == 1


def arange_fixture(call, declared):
    """A function returning ``call`` under a declared ``return`` interval."""
    return (
        '"""Range fixture: np.arange bounds."""\n'
        "import numpy as np\n"
        "\n"
        '__all__ = ["offsets"]\n'
        "\n"
        "\n"
        "def offsets(step):\n"
        '    """Offsets.\n'
        "\n"
        "    Bits:\n"
        f"        return: i64{declared}\n"
        '    """\n'
        f"    return {call}\n"
    )


class TestArange:
    """``np.arange`` is read as numpy reads it: ``arange(stop)``,
    ``arange(start, stop[, step])``; only a known positive step bounds it."""

    @pytest.mark.parametrize(
        "call, inferred",
        [
            ("np.arange(16)", "[0, 15]"),
            ("np.arange(4, 16)", "[4, 15]"),
            ("np.arange(0, 256, 4)", "[0, 252]"),
            ("np.arange(1, 256, 4)", "[1, 253]"),
            ("np.arange(0, 256, step=4)", "[0, 252]"),
        ],
    )
    def test_inferred_interval(self, tmp_path, call, inferred):
        _, project = load(
            tmp_path,
            {
                "repro/__init__.py": PKG,
                "repro/steps.py": arange_fixture(call, "[0, 3]"),
            },
        )
        assert f"return(inferred): {inferred}" in render_ranges(project)

    @pytest.mark.parametrize(
        "call, declared, fires",
        [
            # The stride is not the stop: 0..252 breaks a [0, 3] contract.
            ("np.arange(0, 256, 4)", "[0, 3]", True),
            ("np.arange(0, 256, 4)", "[0, 251]", True),
            ("np.arange(0, 256, 4)", "[0, 252]", False),
            # A negative step counts down: no finite bound, no false alarm.
            ("np.arange(-10, -30, -5)", "[-25, -10]", False),
            # An unknown step bounds nothing either.
            ("np.arange(0, 256, step)", "[0, 3]", False),
        ],
    )
    def test_contract_checked_against_strided_range(
        self, tmp_path, call, declared, fires
    ):
        root, project = load(
            tmp_path,
            {
                "repro/__init__.py": PKG,
                "repro/steps.py": arange_fixture(call, declared),
            },
        )
        expected = [
            ("wp-bits-spec-violation", str(root / "repro" / "steps.py"), 13)
        ]
        diags = project.analyze(select=RULES)
        assert hits(diags, "wp-bits-spec-violation") == (
            expected if fires else []
        )


class TestJobsAndRendering:
    FILES = {
        "repro/__init__.py": PKG,
        "repro/packy.py": OVERFLOW,
        "repro/lossy.py": LOSSY,
        "repro/contract.py": CONTRACT,
        "repro/qclass.py": QCLASS,
    }

    @staticmethod
    def _key(diagnostics):
        return sorted(
            (d.rule_id, d.path, d.line, d.col, d.message, d.severity)
            for d in diagnostics
        )

    def test_jobs_bit_identical_to_serial(self, tmp_path):
        root, _ = load(tmp_path, self.FILES)
        serial = Project.load([str(root / "repro")]).analyze(select=RULES)
        forked = Project.load([str(root / "repro")]).analyze(
            select=RULES, jobs=2
        )
        assert self._key(serial) == self._key(forked)
        assert len(serial) == 6

    def test_render_ranges_lists_declared_and_inferred(self, tmp_path):
        _, project = load(
            tmp_path, {"repro/__init__.py": PKG, "repro/lossy.py": LOSSY}
        )
        table = render_ranges(project)
        assert "repro.lossy.shrink" in table
        assert "value: i64 [0, 300]" in table
        assert "(9 bits)" in table

    def test_render_ranges_without_specs(self, tmp_path):
        _, project = load(tmp_path, {"repro/__init__.py": PKG})
        assert "(no Bits: specs found)" in render_ranges(project)


class TestCacheRoundTrip:
    def test_warm_run_replays_range_diagnostics(self, tmp_path):
        from repro.analysis.cache import AnalysisCache

        root = write_tree(
            tmp_path, {"repro/__init__.py": PKG, "repro/packy.py": OVERFLOW}
        )
        cache_path = tmp_path / "cache.json"
        cold = Project.load(
            [str(root / "repro")], cache=AnalysisCache(cache_path)
        )
        cold_diags = cold.analyze(select=RULES)
        warm = Project.load(
            [str(root / "repro")], cache=AnalysisCache(cache_path)
        )
        warm_diags = warm.analyze(select=RULES)
        assert TestJobsAndRendering._key(cold_diags) == (
            TestJobsAndRendering._key(warm_diags)
        )
        assert warm.stats["analyzed"] == 0 and warm.stats["cached"] == 2


class TestBitsCoverage:
    """Every public function in the packing/dequant storage layer must
    carry a ``Bits:`` contract, so the range pass always has a seed there."""

    REPO_SRC = __import__("pathlib").Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize(
        "rel",
        [
            "repro/quant/packing.py",
            "repro/quant/formats.py",
        ],
    )
    def test_public_functions_carry_bits_specs(self, rel):
        import ast

        from repro.analysis.astutil import is_public_name
        from repro.analysis.ranges import collect_bits_specs

        tree = ast.parse((self.REPO_SRC / rel).read_text())
        specs, errors = collect_bits_specs(tree)
        assert errors == []

        public: list = []

        def visit(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if is_public_name(node.name):
                        public.append(prefix + node.name)
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, prefix + node.name + ".")

        visit(tree.body, "")
        assert public, f"no public functions found in {rel}"
        missing = sorted(name for name in public if name not in specs)
        assert missing == [], (
            f"public functions in {rel} without a Bits: contract: {missing}"
        )
