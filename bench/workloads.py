"""Seeded request lists for the benchmark workloads.

Every request is one argument vector for `srknots.cli.main`, plus the data
the checks need to work out the right answer independently.  A seed always
gives the same list.  The seed moves only inputs whose cost is close to
fixed, so that two seeds load the program alike: every polynomial's unit
multiple +-t^k, sparse coefficients, matrix entries and scan boxes.  Rows
whose cost depends steeply on the draw (fusion products, spans, matrix
sizes) sit on fixed lists or ladders, because single draws of them differ
in cost by 10x or more and would swamp the figures.  NOTES.md gives the
reasons workload by workload.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

import polys

WORKLOADS = ("classify_products", "classify_wide", "paper_grid")


@dataclass(frozen=True)
class Request:
    argv: tuple
    kind: str
    data: dict = field(default_factory=dict)


def build(workload: str, seed: int, root: Path) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify_products":
        return _classify_products(rng, root)
    if workload == "classify_wide":
        return _classify_wide(rng)
    if workload == "paper_grid":
        return _paper_grid(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _unit_text(poly: dict, rng: random.Random) -> str:
    """poly times a seeded unit +-t^k; classify normalizes it away."""
    return polys.fmt(polys.shift(poly, rng.randint(-3, 3), rng.choice((1, -1))))


# -- classify_products ---------------------------------------------------------

# The fusion triples with m <= 3, |l| <= 2 whose factor is not a unit.
POOL = tuple(
    (m, l, p)
    for m in range(1, 4)
    for l in range(-2, 3)
    for p in range(m + 1)
    if max(polys.fusion_factor(m, l, p)) >= 2
)

# Fixed 3- and 4-factor products.  Their peel costs differ by 100x between
# draws (certificate counts from 12 to 1,664), so drawing them per seed
# would make the seed, not the program, set the figures.  On a 2-core x86
# VM these take 40 to 500 ms each, above nearly every 1- and 2-factor row,
# and there are enough of them that latency_p90_ms falls inside this set.
CORE_PRODUCTS = (
    ((1, 1, 1), (2, 1, 2), (3, 1, 1)),
    ((1, -1, 0), (1, 1, 0), (3, 2, 3)),
    ((1, -1, 1), (3, -1, 0), (3, 1, 1)),
    ((1, -1, 1), (2, 1, 2), (3, 2, 2)),
    ((1, 1, 0), (3, -2, 3), (3, -1, 0)),
    ((1, 1, 0), (3, -1, 3), (3, 2, 3)),
    ((1, -1, 1), (3, 1, 2), (3, 2, 1)),
    ((2, 2, 0), (3, -1, 2), (3, 1, 2)),
    ((2, 1, 1), (3, -1, 1), (3, 1, 1)),
    ((3, -1, 2), (3, 0, 0), (3, 1, 2)),
    ((1, 1, 0), (3, 1, 0), (3, 1, 1)),
    ((1, 2, 1), (2, 1, 2), (3, 1, 1)),
    ((1, 2, 0), (3, -2, 0), (3, 0, 3)),
    ((1, -2, 1), (2, 2, 2), (3, -1, 2)),
    ((1, -2, 1), (1, 1, 0), (2, -1, 2), (3, 2, 0)),
    ((1, -1, 1), (3, 0, 1), (3, 2, 0), (3, 2, 2)),
)

# The obstruction each NOT_SR row of the bundled table must get.
TABLE_OBSTRUCTIONS = {
    "10_22": "DELTA2_FACTOR",
    "10_48": "DELTA2_FACTOR",
    "5_1#5_1*": "DELTA2_FACTOR",
    "10_3": "DELTA2_ONE_FORM",
    "10_35": "DELTA2_ONE_FORM",
    "10_123": "DELTA2_ONE_FORM",
    "5_2#5_2*": "DELTA2_ONE_FORM",
}

TABLE_PATH = Path("src", "srknots", "data", "ribbon_table.txt")


def read_table(root: Path) -> list[tuple[str, str, str, str]]:
    """(name, sr_flag, polynomial, factorization) for every table row."""
    rows = []
    for line in (root / TABLE_PATH).read_text(encoding="utf-8").splitlines():
        name, flag, _, _, poly, fact = line.split("|")
        rows.append((name, flag, poly, fact))
    return rows


def product_poly(factors) -> dict:
    acc = {0: 1}
    for triple in factors:
        acc = polys.mul(acc, polys.fusion_factor(*triple))
    return acc


# Thirty fixed 2-factor products, drawn once from POOL.
PAIRS = tuple(
    tuple(sorted(random.Random(f"pairs:{i}").sample(POOL, 2))) for i in range(30)
)


def _classify_products(rng: random.Random, root: Path) -> list[Request]:
    """The table rows, then 1-, 2-, 3- and 4-factor products, in a fixed order.

    Per-request costs span 100x, so the products are fixed and the seed
    draws only each input's unit multiple.  The fixed order makes each
    candidate-table fill (one per distinct span, the first time it is
    needed) land on the same request in every run.
    """
    out = []
    for name, flag, poly, fact in read_table(root):
        text = _unit_text(polys.parse(poly), rng)
        data = {"name": name, "sr": flag == "yes", "fact": fact, "poly": poly}
        out.append(Request(("sr", "classify", "--poly", text), "table", data))
    for factors in [(t,) for t in POOL] + list(PAIRS) + list(CORE_PRODUCTS):
        poly = product_poly(factors)
        text = _unit_text(poly, rng)
        out.append(Request(("sr", "classify", "--poly", text), "product", {"factors": factors}))
    return out


# -- classify_wide -------------------------------------------------------------

# Sixteen spans from 500 to 8,000 in equal ratios.
SPAN_LADDER = tuple(round(500 * 16 ** (i / 15) / 2) * 2 for i in range(16))

# Primes q in this range with 2 a primitive root mod q.  A q dividing delta2
# proves DELTA2_FACTOR: q | 2^s +- 1 needs ord_q(2) = q - 1 <= 2s, but every
# factor 2^s +- 1 of delta2 has s <= span + 4 < (q - 1) / 2.
_Q_RANGE = (20_000, 24_000)
# The 2^s +- 1 values with s <= 24.  Each one dividing delta2 makes the
# 2^s +- 1 search recurse, so a palindrome fixes which of them divide
# rather than leave the search depth to the seed.
_SMALL_PM = tuple(sorted({(1 << s) + d for s in range(2, 25) for d in (-1, 1)}))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def primitive_root_two(q: int) -> bool:
    return all(pow(2, (q - 1) // r, q) != 1 for r in _prime_factors(q - 1))


_PALINDROME_PRIMES = tuple(
    q for q in range(*_Q_RANGE) if _is_prime(q) and primitive_root_two(q)
)


def _sparse_half(span: int, rng: random.Random) -> dict:
    """Random sparse terms strictly inside (0, span/2)."""
    exps = rng.sample(range(1, span // 2), 6)
    return {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps}


def _palindrome(span: int, divisible: frozenset, rng: random.Random) -> tuple[dict, int]:
    """A sparse palindrome of the span whose delta2 has a certifying prime q.

    The middle coefficient is solved for so that q divides P(2) and, of the
    small 2^s +- 1 values, exactly those in `divisible` divide P(2) too.
    """
    half = span // 2
    body = {0: rng.randint(1, 3)}
    body.update(_sparse_half(span, rng))
    base = {}
    for e, c in body.items():
        base[e] = base.get(e, 0) + c
        base[span - e] = base.get(span - e, 0) + c
    q = rng.choice(_PALINDROME_PRIMES)
    b0 = polys.value(base, 2)
    c = (-b0 * pow(pow(2, half, q), -1, q)) % q
    residues = [(v, b0 % v, pow(2, half, v)) for v in _SMALL_PM]
    while any(((r + c * w) % v == 0) != (v in divisible) for v, r, w in residues):
        c += q
    poly = dict(base)
    poly[half] = poly.get(half, 0) + c
    return polys.clean(poly), q


def _asymmetric(span: int, rng: random.Random) -> dict:
    c0 = rng.randint(1, 3)
    poly = {0: c0, span: rng.choice([c for c in (-4, -3, -2, 2, 3, 4) if abs(c) != c0])}
    poly.update(_sparse_half(span, rng))
    poly.update({span - e: c for e, c in _sparse_half(span, rng).items()})
    return poly


def _classify_wide(rng: random.Random) -> list[Request]:
    out = []
    for level, target in enumerate(SPAN_LADDER):
        # The trinomial 1 - t^N + t^2N has delta2 = 4^N - 2^N + 1, which
        # holds a primitive prime divisor of 2^(6N) - 1 (Zsigmondy, N >= 2)
        # and so is no product of 2^s +- 1 values.  Its cost depends on
        # which small 2^s +- 1 values divide delta2, so N is not drawn.
        n = target // 2
        trinomial = {0: 1, n: -1, 2 * n: 1}
        span = target + 2 * rng.randint(-8, 8)
        # One costly symmetric input per level, trinomials and palindromes
        # in turn, and cheap asymmetric ones around it.
        if level % 2:
            palindrome, q = _palindrome(span, frozenset((3,) if level % 4 == 1 else ()), rng)
            heavy = ("palindrome", palindrome, {"q": q})
        else:
            heavy = ("trinomial", trinomial, {})
        shapes = [heavy] + [("asymmetric", _asymmetric(span, rng), {}) for _ in range(3)]
        for kind, poly, extra in shapes:
            data = {"poly": poly, "shape": kind, **extra}
            out.append(Request(("sr", "classify", "--poly", _unit_text(poly, rng)), "classify", data))
        for kind, poly, extra in shapes[:3]:
            data = {"poly": poly, "shape": kind}
            out.append(Request(("knot", "invariants", "--poly", _unit_text(poly, rng)), "invariants", data))
    rng.shuffle(out)
    return out


# -- paper_grid ----------------------------------------------------------------

ALEXANDER_SIZES = tuple(s for s in range(8, 25, 2) for _ in range(2))


def fusion_blocks(eps: tuple, l: int) -> tuple[list, list]:
    """The P, Q blocks of one fusion, laid out as in `srknots.seifert`."""
    m, k = len(eps), abs(l)
    size = m + k
    P = [[0] * size for _ in range(size)]
    Q = [[0] * size for _ in range(size)]
    for i, e in enumerate(eps):
        P[i][i] -= (e + 1) // 2
        Q[i][i] -= (e - 1) // 2
    for i, e in enumerate(eps):
        P[i][(i - 1) % m] += e
        Q[(i - 1) % m][i] += e
    if l:
        s = -1 if l < 0 else 1
        a, b = (s + 1) // 2, (s - 1) // 2
        P[0][size - 1] = eps[0]
        Q[size - 1][0] = eps[0]
        for i in range(k):
            P[m + i][m - 1] = s
            Q[m - 1][m + i] = s
            P[m + i][m + i] = a
            Q[m + i][m + i] = b
            if i >= 1:
                P[m + i][m + i - 1] = b
            if i < k - 1:
                Q[m + i][m + i + 1] = a
    return P, Q


def _genus_block(g2: int, rng: random.Random) -> list:
    """G with G - G^T the standard symplectic form, so |G - tG^T| is nonzero at 1."""
    G = [[0] * g2 for _ in range(g2)]
    for i in range(g2):
        for j in range(i, g2):
            G[i][j] = G[j][i] = rng.randint(-2, 2)
    for i in range(0, g2, 2):
        G[i][i + 1] += 1
    return G


def _assembled(size: int, rng: random.Random) -> tuple[list, dict]:
    g2 = rng.choice([g for g in (2, 4, 6, 8) if 2 <= (size - g) // 2 <= 8])
    n = (size - g2) // 2
    m = rng.randint(1, min(5, n))
    l = (n - m) * rng.choice((1, -1))
    eps = tuple(rng.choice((1, -1)) for _ in range(m))
    P, Q = fusion_blocks(eps, l)
    G = _genus_block(g2, rng)

    def fill(rows, cols):
        return [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]

    mid, right, bottom = fill(n, n), fill(n, g2), fill(g2, n)
    rows = [[0] * n + P[i] + [0] * g2 for i in range(n)]
    rows += [Q[i] + mid[i] + right[i] for i in range(n)]
    rows += [[0] * n + bottom[i] + G[i] for i in range(g2)]
    data = {"m": m, "l": l, "p": eps.count(1), "genus": G, "matrix": rows}
    return rows, data


def scan_boxes(rng: random.Random) -> list[tuple[str, tuple]]:
    """Each family at its acceptance bound and in an overlapping nearby box."""
    j = rng.randint
    return [
        ("catalan", (100, 100, 7, 7)),
        ("catalan", (100 + j(-20, 20), 100 + j(-20, 20), 7 + j(-1, 1), 7 + j(-1, 1))),
        ("minus", (50, 12)),
        ("minus", (50 + j(-10, 10), 12 + j(-1, 1))),
        ("base", (50, 12)),
        ("base", (50 + j(-10, 10), 12 + j(-1, 1))),
        ("plus", (100, 12)),
        ("plus", (100 + j(-10, 10), 12)),
        ("det-powers", (20, 8)),
        ("det-powers", (20 + j(-4, 4), 8 + j(-2, 2))),
    ]


def _paper_grid(rng: random.Random) -> list[Request]:
    out = []
    for m in range(1, 6):
        for l in range(-4, 5):
            for eps in itertools.product((1, -1), repeat=m):
                signs = ",".join(f"{e:+d}" for e in eps)
                argv = ("seifert", "check", f"--m={m}", f"--l={l}", f"--eps={signs}")
                out.append(Request(argv, "check", {"eps": eps, "l": l}))
    for size in ALEXANDER_SIZES:
        rows, data = _assembled(size, rng)
        text = ";".join(",".join(str(x) for x in row) for row in rows)
        out.append(Request(("seifert", "alexander", f"--matrix={text}"), "alexander", data))
    for family, bounds in scan_boxes(rng):
        argv = ("nt", "scan", "--family", family, "--bounds", ",".join(map(str, bounds)))
        out.append(Request(argv, "scan", {"family": family, "bounds": bounds}))
    for _ in range(12):
        n = rng.randint(1, 12)
        m = rng.choice((2 * n, n + 1, n + rng.randint(1, 3 * n)))
        out.append(Request(("nt", "pairs", "--m", str(m), "--n", str(n)), "pairs", {"m": m, "n": n}))
    out.append(Request(("table", "verify"), "verify"))
    return out
