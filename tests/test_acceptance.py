"""End-to-end acceptance suite.

Every check here is exact integer/polynomial equality (zero tolerance); each
test prints one machine-greppable PASS/FAIL line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they appear.
"""

import itertools
import random
import time

from srknots.corpus import load_corpus
from srknots.invariants import delta2, knot_det
from srknots.laurent import LaurentPoly, equal_up_to_unit, normalize
from srknots.seifert import (
    FusionSigns,
    SeifertMatrix,
    alexander_from_fusion,
    alexander_from_seifert,
    build_blocks,
    closed_form_dets,
    det_P_minus_tQT,
    det_Q_minus_tPT,
    reduced_form_dets,
)
from srknots.srpoly import (
    SRDecomposition,
    SRParams,
    F_factor,
    factor_span,
    mirror_identity_check,
    product_formula,
)
from srknots.srsearch import (
    DELTA2_ONE_QUARTIC,
    Obstruction,
    Verdict,
    classify,
    decompose,
    delta2_one_factors,
)
from srknots.numtheory import (
    catalan_scan,
    scan_base_match,
    scan_det_power_products,
    scan_plus_match,
)

NOT_SR_ROWS = {"10_3", "10_22", "10_35", "10_48", "10_123", "5_1#5_1*", "5_2#5_2*"}
DELTA2_FACTOR_ROWS = {"10_22", "10_48", "5_1#5_1*"}
DELTA2_ONE_ROWS = {"10_3", "10_35", "10_123", "5_2#5_2*"}


def report(name, failures, started, detail=""):
    status = "PASS" if not failures else "FAIL"
    elapsed = time.time() - started
    suffix = f" {detail}" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix} ({elapsed:.2f}s)")
    assert not failures, failures[:10]


def test_table_replay():
    started = time.time()
    failures = []
    records = load_corpus()
    if len(records) != 25:
        failures.append(f"expected 25 rows, got {len(records)}")
    yes_rows = 0
    for record in records:
        if delta2(record.delta_prime) != record.delta2:
            failures.append(f"{record.name}: delta2")
        if knot_det(record.delta_prime) != record.det:
            failures.append(f"{record.name}: det")
        if record.factorization is not None:
            yes_rows += 1
            regenerated = product_formula(record.factorization)
            if not equal_up_to_unit(regenerated, record.delta_prime):
                failures.append(f"{record.name}: factorization does not regenerate")
    if yes_rows != 18:
        failures.append(f"expected 18 factorized rows, got {yes_rows}")
    report("table replay", failures, started, f"{len(records)} rows")


def test_ten_crossing_classification():
    started = time.time()
    failures = []
    records = load_corpus()
    for record in records:
        outcome = classify(record.delta_prime)
        if record.name in NOT_SR_ROWS:
            if outcome.verdict is not Verdict.NOT_SR:
                failures.append(f"{record.name}: expected NOT_SR")
                continue
            if record.name in DELTA2_FACTOR_ROWS and outcome.obstruction is not Obstruction.DELTA2_FACTOR:
                failures.append(f"{record.name}: expected DELTA2_FACTOR")
            if record.name in DELTA2_ONE_ROWS and outcome.obstruction is not Obstruction.DELTA2_ONE_FORM:
                failures.append(f"{record.name}: expected DELTA2_ONE_FORM")
        else:
            if outcome.verdict is not Verdict.POLY_COMPATIBLE:
                failures.append(f"{record.name}: expected POLY_COMPATIBLE")
                continue
            if record.factorization not in outcome.decompositions:
                failures.append(f"{record.name}: stored factorization missing from certificates")
    sr_names = {r.name for r in records if r.sr}
    if sr_names & NOT_SR_ROWS or len(sr_names) + len(NOT_SR_ROWS) != 25:
        failures.append("yes/no split does not match the table")
    report("ten-crossing classification", failures, started)


def sign_grid(max_m, max_abs_l):
    for m in range(1, max_m + 1):
        for l in range(-max_abs_l, max_abs_l + 1):
            for eps in itertools.product((1, -1), repeat=m):
                yield FusionSigns(eps, l)


def test_block_determinant_closed_forms():
    started = time.time()
    failures = []
    cases = 0
    for signs in sign_grid(5, 4):
        det_p = det_P_minus_tQT(signs)
        det_q = det_Q_minus_tPT(signs)
        closed_p, closed_q = closed_form_dets(signs)
        reduced_p, reduced_q = reduced_form_dets(signs)
        if not (det_p == closed_p == reduced_p):
            failures.append(f"{signs}: P-side mismatch")
        if not (det_q == closed_q == reduced_q):
            failures.append(f"{signs}: Q-side mismatch")
        cases += 1
    report("block determinant closed forms", failures, started, f"{2 * cases} determinants")


def test_fusion_factor_consistency():
    started = time.time()
    failures = []
    for signs in sign_grid(5, 4):
        via_blocks = alexander_from_fusion(signs)
        if not equal_up_to_unit(via_blocks, F_factor(signs.params)):
            failures.append(f"{signs}: block route disagrees with factor formula")

    rng = random.Random(1234)
    trials = 0
    while trials < 100:
        m = rng.randint(1, 3)
        l = rng.randint(-2, 2)
        g = rng.randint(0, 2)
        signs = FusionSigns(tuple(rng.choice((1, -1)) for _ in range(m)), l)
        n = m + abs(l)
        genus_block = [[rng.randint(-3, 3) for _ in range(2 * g)] for _ in range(2 * g)]
        assembled = SeifertMatrix.assemble(
            build_blocks(signs),
            genus_block,
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
            [[rng.randint(-3, 3) for _ in range(2 * g)] for _ in range(n)],
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2 * g)],
        )
        try:
            base = alexander_from_seifert(SeifertMatrix(genus_block))
            whole = alexander_from_seifert(assembled)
        except ValueError:
            continue  # genus block with vanishing determinant; redraw
        expected = base * det_P_minus_tQT(signs) * det_Q_minus_tPT(signs)
        if not equal_up_to_unit(whole, expected):
            failures.append(f"trial {trials}: assembled determinant mismatch")
        trials += 1
    report("fusion factor consistency", failures, started, "grid + 100 assemblies")


def test_mirror_identity_grid():
    started = time.time()
    failures = []
    cases = 0
    for m in range(1, 7):
        for l in range(-6, 7):
            for p in range(m + 1):
                if not mirror_identity_check(SRParams(m, l, p)):
                    failures.append(f"({m},{l},{p})")
                cases += 1
    report("mirror identity grid", failures, started, f"{cases} parameter triples")


def test_delta2_one_enumeration():
    started = time.time()
    failures = []
    hits = delta2_one_factors(6, 6)
    for prm, gh in hits:
        shape = normalize(gh)
        if shape != LaurentPoly.one() and shape != DELTA2_ONE_QUARTIC:
            failures.append(f"{prm}: unexpected shape {shape}")
    if not hits:
        failures.append("enumeration returned nothing")
    report("delta2-one enumeration", failures, started, f"{len(hits)} factors, 2 shapes")


def test_integer_scans():
    started = time.time()
    failures = []

    s1, s2, s3, s4, s5, s6 = scan_det_power_products(20, 8)
    if s1 != []:
        failures.append("shape1 not empty")
    if s4 != []:
        failures.append("shape4 not empty")
    if set(s2) != {(3, 1, q, 2 * q) for q in range(1, 5)}:
        failures.append("shape2 family mismatch")
    expected3 = {(3, 2, q, 2 * q) for q in range(1, 5)} | {(1, 2, r, r) for r in range(1, 9)}
    if set(s3) != expected3:
        failures.append("shape3 family mismatch")
    # Base 2^1 - 1 = 1 makes its exponent vacuous, so p is unconstrained in
    # the degenerate M = 1 rows of shapes 5 and 6.
    expected5 = {(mm, 2 * mm, e, e, e) for mm in range(2, 11) for e in range(1, 9)}
    expected5 |= {(1, 2, p, q, q) for p in range(1, 9) for q in range(1, 9)}
    if set(s5) != expected5:
        failures.append("shape5 family mismatch")
    expected6 = {(1, 3, p, 2 * r, r) for p in range(1, 9) for r in range(1, 5)}
    if set(s6) != expected6:
        failures.append("shape6 family mismatch")

    plus_plus, plus_minus = scan_plus_match(50, 12)
    if plus_plus != [(2, 3, 1)]:
        failures.append("plus/plus scan mismatch")
    expected_pm = {(3, 1, 1), (2, 3, 2), (3, 2, 4)} | {
        (a, 1, 2) for a in (2, 3, 5, 9, 17, 33)
    }
    if set(plus_minus) != expected_pm:
        failures.append("plus/minus scan mismatch")

    odd_hits, even_hits = scan_base_match(50, 12)
    if odd_hits != [(2, 3)]:
        failures.append("odd base-match scan mismatch")
    if even_hits != [(a, 2) for a in (2, 3, 5, 9, 17, 33)]:
        failures.append("even base-match scan mismatch")

    if catalan_scan(100, 100, 7, 7) != [(3, 2, 2, 3)]:
        failures.append("catalan scan mismatch")

    report("integer scans", failures, started)


def test_search_round_trip():
    started = time.time()
    failures = []
    rng = random.Random(20240901)
    pool = [
        SRParams(m, l, p)
        for m in range(1, 4)
        for l in range(-3, 4)
        for p in range(m + 1)
        if factor_span(SRParams(m, l, p)) >= 2
    ]
    for trial in range(200):
        count = rng.randint(1, 2)
        chosen = [rng.choice(pool) for _ in range(count)]
        target = product_formula(SRDecomposition(tuple(chosen)))
        results = decompose(target)
        wanted = sorted((F_factor(prm) for prm in chosen), key=hash)
        recovered = [
            sorted((F_factor(prm) for prm in d), key=hash)
            for d in results
            if len(d) == count
        ]
        if wanted not in recovered:
            failures.append(f"trial {trial}: {[str(c) for c in chosen]} not recovered")
    report("search round trip", failures, started, "200 random multisets")
