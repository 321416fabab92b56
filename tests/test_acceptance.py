"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s`.

1. Gauss-sum suite (exact, < 5 s)
2. Weyl-length suite (exact, < 5 s)
3. Power-map oracle equivalence (exact, < 10 min, budget 10^7)
4. Wave-front multiplicity identity (exact, < 1 s)
5. Twist-sign consistency grid (exact, < 1 s)
6. Brauer end-to-end count (exact, < 5 min)
7. Rank-one field sanity (exact, < 1 s)
8. Spinor-kernel membership against the root subgroup (exact, < 5 s)
"""

import time

from charfield.verify import (
    suite_brauer,
    suite_fields,
    suite_gauss,
    suite_powmap,
    suite_relweyl,
    suite_spinor,
    suite_wavefront,
)


def _report(criterion: str, results, limit: float, elapsed: float) -> None:
    ok = all(r.ok for r in results)
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion} [{elapsed:.1f}s]")
    for r in results:
        print(f"    {r.name}: {'ok' if r.ok else 'FAIL'} "
              f"({r.detail}; {r.cells} cells, {r.seconds:.2f}s)")
    assert ok, [r.name for r in results if not r.ok]
    assert elapsed < limit, f"{criterion} took {elapsed:.1f}s, limit {limit}s"


def test_criterion_1_gauss_sums():
    t = time.time()
    results = suite_gauss()
    assert [r.cells for r in results] == [312]
    _report("criterion 1: Gauss sums", results, 5.0, time.time() - t)


def test_criterion_2_weyl_lengths():
    t = time.time()
    results = [r for r in suite_relweyl() if r.name != "twist-sign-grid"]
    assert [r.cells for r in results] == [384, 63, 337]
    _report("criterion 2: Weyl lengths", results, 5.0, time.time() - t)


def test_criterion_3_power_map_oracle():
    t = time.time()
    results = suite_powmap()
    assert [r.cells for r in results] == [132]
    _report("criterion 3: power-map oracle equivalence", results, 600.0, time.time() - t)


def test_criterion_4_wavefront_identity():
    t = time.time()
    results = suite_wavefront()
    assert [r.cells for r in results] == [52]
    _report("criterion 4: wave-front multiplicity identity", results, 1.0, time.time() - t)


def test_criterion_5_twist_sign_grid():
    t = time.time()
    results = [r for r in suite_relweyl() if r.name == "twist-sign-grid"]
    assert [r.cells for r in results] == [1316]
    _report("criterion 5: twist-sign consistency grid", results, 1.0, time.time() - t)


def test_criterion_6_brauer_end_to_end():
    t = time.time()
    results = suite_brauer()
    assert [r.cells for r in results] == [2048]
    _report("criterion 6: Brauer end-to-end count", results, 300.0, time.time() - t)


def test_criterion_7_rank_one_fields():
    t = time.time()
    results = suite_fields()
    assert [r.cells for r in results] == [4]
    _report("criterion 7: rank-one field sanity", results, 1.0, time.time() - t)


def test_criterion_8_spinor_kernel():
    t = time.time()
    results = suite_spinor()
    assert [r.cells for r in results] == [6]
    _report("criterion 8: spinor kernel against the root subgroup", results, 5.0, time.time() - t)
