"""Shared pytest plumbing: collects one line per acceptance criterion and
prints the lot in the terminal summary, so a plain `pytest -v` run shows
every PASS/FAIL verdict even with output capture on; and starts every test
with cold spectral and structure memos."""

import pytest

from specmult import oracle, spectra, structure

ACCEPTANCE_LINES: list[str] = []


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(autouse=True)
def cold_spectral_memos():
    """A memo warmed by an earlier test would bypass the helpers a test
    monkeypatches (_real_roots, irreducible_factors, squarefree_parts, the
    structure functions, poly_divmod) and make its result depend on test
    order."""
    oracle._cached_profile.cache_clear()
    oracle._spectral_factors.cache_clear()
    oracle._spectral_parts.cache_clear()
    oracle._root_descriptors.cache_clear()
    spectra._char_poly_of_tables.cache_clear()
    spectra._division_count.cache_clear()
    structure._structure.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
