"""EXPERIMENTS.md quotes the numbers the paper benchmarks produce.

Each section of EXPERIMENTS.md that names ``benchmarks/bench_<x>.py``
reports measurements whose text the benchmark pins byte for byte in
``benchmarks/golden/test_<x>.txt``.  Every decimal number the section
quotes must be a number of that golden file, rounded half-up to the
decimals quoted: the §7 prose says "6.0 ms" for a golden 5.95 ms, so a
plain substring match is not enough.
"""

import pathlib
import re
from decimal import ROUND_HALF_UP, Decimal

import pytest

ROOT = pathlib.Path(__file__).parent.parent
BENCH_NAME = re.compile(r"`benchmarks/bench_(\w+)\.py`")
# A decimal number on its own, not part of a name such as "802.11b".
QUOTED = re.compile(r"(?<![\w.])\d+\.\d+(?![\w.])")
NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _sections():
    """(bench name, section text) for each section naming a bench."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for section in re.split(r"^#+ .*$", text, flags=re.M):
        match = BENCH_NAME.search(section)
        if match:
            yield match.group(1), section


SECTIONS = dict(_sections())


def _rounds_to(golden: Decimal, quoted: str) -> bool:
    target = Decimal(quoted)
    return golden.quantize(target, rounding=ROUND_HALF_UP) == target


def test_every_bench_section_is_found():
    benches = {path.stem[len("bench_"):]
               for path in (ROOT / "benchmarks").glob("bench_*.py")}
    # The chaos benchmark has no EXPERIMENTS.md section of its own.
    assert set(SECTIONS) == benches - {"chaos_resilience"}


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_quoted_numbers_come_from_the_golden_file(name):
    golden_text = (ROOT / "benchmarks" / "golden" /
                   f"test_{name}.txt").read_text(encoding="utf-8")
    golden = [Decimal(number) for number in NUMBER.findall(golden_text)]
    quoted = QUOTED.findall(SECTIONS[name])
    missing = [number for number in quoted
               if not any(_rounds_to(value, number) for value in golden)]
    assert missing == []
