"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each criterion runs at its stated tolerance (exact arithmetic unless noted)
and asserts its runtime budget where one is stated. The per-criterion
verdict lines are printed in the terminal summary section; heavy sweeps are
shared between criteria instead of re-run.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import conftest

from specmult.graphs import cycle_graph
from specmult.hermitian import adjacency_matrix
from specmult.oracle import CampaignConfig, run_campaign
from specmult.spectra import (
    AlgebraicEigenvalue,
    min_poly_2cos,
    multiplicity,
    poly_divmod,
    poly_mul,
    scaled_char_poly,
)

# labeled connected graphs on 2..7 vertices; deduped trees 2..10; deduped
# unicyclic 3..9; cycle-with-tail shapes n <= 10; gain grid 8 sizes x 4
# variants x 4 alphas; 500 random graphs x 16 seeds
CONNECTED_INSTANCES = 1 + 4 + 38 + 728 + 26704 + 1866256
TREE_INSTANCES = 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106
UNICYCLIC_INSTANCES = 1 + 2 + 5 + 13 + 33 + 89 + 240
CSTAR_INSTANCES = 28
GAIN_INSTANCES = 128
RANDOM_INSTANCES = 500 * 16
GUVH_INSTANCES = 200


@contextmanager
def criterion(num: int, note: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        conftest.record_criterion(f"criterion {num:02d}: FAIL ({elapsed:.1f}s) {note}")
        raise
    elapsed = time.perf_counter() - t0
    conftest.record_criterion(f"criterion {num:02d}: PASS ({elapsed:.1f}s) {note}")


def _campaign(name, **kw):
    t0 = time.perf_counter()
    summary, discrepancies = run_campaign(CampaignConfig(name, **kw))
    return summary, discrepancies, time.perf_counter() - t0


def _assert_clean(summary, discrepancies, predicates=None):
    assert discrepancies == [], [d.as_json() for d in discrepancies[:3]]
    counters = summary["counters"]
    for name in predicates or counters:
        assert name in counters and counters[name]["checks"] > 0, name
        assert counters[name]["failures"] == 0, name


# the n <= 7 exhaustive sweep backs criteria 4 and 5; run it once
_SWEEP_CACHE: dict = {}


def _connected_sweep():
    if "result" not in _SWEEP_CACHE:
        _SWEEP_CACHE["result"] = _campaign("connected", cap=7)
    return _SWEEP_CACHE["result"]


def test_criterion_01_pinned_fixtures():
    with criterion(1, "pinned fixture multiplicities, exact, zero tolerance"):
        summary, discrepancies, elapsed = _campaign("fixtures")
        _assert_clean(
            summary,
            discrepancies,
            [
                "pinned-fixture-values",
                "counterexample-values",
                "weighted-cycle-simple",
                "weighted-cycle-numeric",
                "tail-transplant-fails",
            ],
        )
        assert elapsed < 1.0, f"{elapsed:.2f}s over the 1s budget"


def test_criterion_02_cycle_equality():
    with criterion(2, "doubled cycle eigenvalues n in [3,12], exact division"):
        t0 = time.perf_counter()
        for n in range(3, 13):
            a = adjacency_matrix(cycle_graph(n))
            charpoly, d = scaled_char_poly(a)
            assert d == 1  # adjacency entries are integers: charpoly of A itself
            for k in range(1, (n + 1) // 2):
                lam = AlgebraicEigenvalue.from_2cos(n, k)
                res = multiplicity(a, lam)
                assert res.multiplicity == 2, (n, k)
                assert res.method in ("ExactRank", "CharPolyDivision")
                # literal route: the square of the minimal polynomial
                # divides the charpoly, and its cube does not
                mu = min_poly_2cos(n, k).coeffs
                rest, rem = poly_divmod(charpoly.coeffs, poly_mul(mu, mu))
                assert not rem and poly_divmod(rest, mu)[1]
        assert time.perf_counter() - t0 < 5.0


def test_criterion_03_tree_theorem_exhaustive():
    with criterion(3, "tree bound and equality predicate, all trees n <= 10, exact"):
        summary, discrepancies, elapsed = _campaign("trees", cap=10)
        _assert_clean(summary, discrepancies, ["tree-bound", "tree-equality"])
        assert summary["instances"] == TREE_INSTANCES
        assert elapsed < 300, f"{elapsed:.1f}s over the 5min budget"


def test_criterion_04_general_bound_exhaustive():
    with criterion(4, "bound over all connected graphs n <= 7, exact profiles"):
        summary, discrepancies, elapsed = _connected_sweep()
        assert summary["instances"] == CONNECTED_INSTANCES
        assert summary["counters"]["upper-bound-exhaustive"]["failures"] == 0
        assert [d for d in discrepancies if d.predicate == "upper-bound-exhaustive"] == []
        assert elapsed < 600, f"{elapsed:.1f}s over the 10min budget"


def test_criterion_05_classifier_exhaustive():
    note = "one-deficient verdict iff m = bound-1, unicyclic n <= 9 + connected n <= 7"
    with criterion(5, note):
        summary, discrepancies, _elapsed = _connected_sweep()
        _assert_clean(summary, discrepancies, ["classifier-consistency", "one-deficient-iff"])
        summary, discrepancies, _elapsed = _campaign("unicyclic", cap=9)
        _assert_clean(
            summary,
            discrepancies,
            ["classifier-consistency", "one-deficient-iff", "unicyclic-equality", "upper-bound"],
        )
        assert summary["instances"] == UNICYCLIC_INSTANCES


def test_criterion_06_hermitian_randomized():
    note = "random S(G) matrices, 500 graphs x 16 seeds + 200 composed instances, tol 1e-8"
    with criterion(6, note):
        summary, discrepancies, _elapsed = _campaign("random", seeds=16)
        _assert_clean(
            summary,
            discrepancies,
            ["upper-bound-random", "upper-bound-probe", "interlace-v", "interlace-e", "path-removal"],
        )
        assert summary["instances"] == RANDOM_INSTANCES
        summary, discrepancies, _elapsed = _campaign("guvh")
        _assert_clean(summary, discrepancies, ["guvh-identity"])
        assert summary["instances"] == GUVH_INSTANCES


def test_criterion_07_tree_corollaries():
    with criterion(7, "distance-test corollaries on all trees n <= 10, exact rank"):
        summary, discrepancies, _elapsed = _campaign("corollaries", cap=10)
        _assert_clean(summary, discrepancies, ["nullity-equivalence", "minus-one-equivalence"])
        assert summary["instances"] == TREE_INSTANCES


def test_criterion_08_cstar_lemma():
    note = "cycle-with-tail biconditional n <= 10 + weighted counterexample"
    with criterion(8, note):
        summary, discrepancies, _elapsed = _campaign("cstar", cap=10)
        _assert_clean(summary, discrepancies, ["cstar-equivalence"])
        assert summary["instances"] == CSTAR_INSTANCES
        # the weighted fixtures must break the adjacency-only biconditional
        summary, discrepancies, _elapsed = _campaign("fixtures")
        _assert_clean(summary, discrepancies, ["tail-transplant-fails", "counterexample-values"])


def test_criterion_09_gain_cycles():
    with criterion(9, "gain-cycle doubling, n <= 10, alpha grid, tol 1e-8"):
        summary, discrepancies, _elapsed = _campaign("gain_cycles", cap=10, tol=1e-8)
        _assert_clean(
            summary,
            discrepancies,
            ["gain-bound", "gain-equality-set", "gain-exact-agree", "gain-relation"],
        )
        assert summary["instances"] == GAIN_INSTANCES


def test_criterion_10_determinism():
    with criterion(10, "byte-identical campaign reruns, fixed seeds"):
        for name, kw in [
            ("fixtures", {}),
            ("trees", {"cap": 6}),
            ("gain_cycles", {"cap": 5}),
            ("random", {"cap": 6, "seeds": 2, "max_instances": 40}),
        ]:
            s1, d1, _ = _campaign(name, **kw)
            s2, d2, _ = _campaign(name, **kw)
            assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True), name
            assert [x.as_json() for x in d1] == [x.as_json() for x in d2], name
