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
    order. Every memo of these modules is found by its cache_clear, so a
    new one cannot be missed."""
    for module in (oracle, spectra, structure):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
