"""Known-answer checks on the stdout of every request, run outside the timed region.

Expected answers come from the benchmark's own arithmetic (`polys`), from
sympy, or from number-theoretic facts; never from `srknots`.  `check`
returns, per request, None when the output is right or a one-line reason.
"""

from __future__ import annotations

import random
import re
from math import comb

import sympy

import polys
import workloads

T = sympy.Symbol("t")


def check(workload: str, requests, outputs, codes, seed: int, table_rows: int) -> list:
    checker = {
        "classify_products": _ProductChecks,
        "classify_wide": _WideChecks,
        "paper_grid": _GridChecks,
    }[workload](requests, seed, table_rows)
    reasons = []
    for i, (req, out, code) in enumerate(zip(requests, outputs, codes)):
        if code != 0:
            reasons.append(f"exit code {code}")
            continue
        try:
            reasons.append(checker.check(i, req, out))
        except (ValueError, KeyError, IndexError) as exc:
            reasons.append(f"unreadable output: {exc}")
    return reasons


def _dict_from_sympy(expr) -> dict:
    poly = sympy.Poly(sympy.expand(expr), T)
    return polys.clean({e: int(c) for (e,), c in poly.terms()})


# -- classify_products -----------------------------------------------------------

_ATOM = re.compile(r"F\((-?\d+),(-?\d+),(-?\d+)\)")


def _certificates(line: str) -> list[tuple]:
    prefix = "POLY_COMPATIBLE certificates="
    if not line.startswith(prefix):
        raise ValueError(f"expected POLY_COMPATIBLE, got {line[:60]!r}")
    return [
        tuple(tuple(int(x) for x in atom) for atom in _ATOM.findall(cert))
        for cert in line[len(prefix):].split(";")
    ]


class _ProductChecks:
    def __init__(self, requests, seed, table_rows):
        self.factor_sympy = {}
        self.product_sympy = {}
        top = max(max(polys.normal(polys.parse(r.argv[-1]))) for r in requests)
        by_poly = {}
        for triple, factor in polys.fusion_factors_up_to(top):
            by_poly.setdefault(polys.key(factor), []).append(triple)
        # Every triple's aliases: the triples with the same factor polynomial.
        self.aliases = {t: ts for ts in by_poly.values() for t in ts}

    def _sympy_factor(self, triple):
        """F(t; m, l, p) times t^k, expanded by sympy."""
        poly = self.factor_sympy.get(triple)
        if poly is None:
            m, l, p = triple
            f = (1 - T) ** m - T**l * (-T) ** p
            k = m + abs(l) + p
            poly = sympy.Poly(sympy.expand(f * f.subs(T, 1 / T) * T ** (2 * k)), T)
            self.factor_sympy[triple] = poly
        return poly

    def _sympy_product(self, cert) -> dict:
        key = tuple(sorted(cert))
        got = self.product_sympy.get(key)
        if got is None:
            acc = sympy.Poly(1, T)
            for triple in key:
                acc = acc * self._sympy_factor(triple)
            got = polys.normal({e: int(c) for (e,), c in acc.terms()})
            self.product_sympy[key] = got
        return got

    @staticmethod
    def _multiset(factors) -> list:
        return sorted(polys.key(polys.fusion_factor(*f)) for f in factors)

    def _certificates_ok(self, certs, target: dict, wanted) -> str | None:
        want = self._multiset(wanted)
        if not any(self._multiset(c) == want for c in certs):
            return "generating factors are not among the certificates"
        # Swapping one factor for an alias gives another certificate, so the
        # set must be closed under it; this catches certificates left out.
        found = {tuple(sorted(c)) for c in certs}
        for cert in found:
            for i, triple in enumerate(cert):
                for alias in self.aliases[triple]:
                    if tuple(sorted(cert[:i] + (alias,) + cert[i + 1:])) not in found:
                        return f"certificate {cert} with {alias} for {triple} is missing"
        for cert in certs:
            if self._sympy_product(cert) != target:
                return f"certificate {cert} does not multiply back to the input"
        return None

    def check(self, i, req, out):
        line = out.strip()
        if req.kind == "product":
            target = polys.normal(workloads.product_poly(req.data["factors"]))
            return self._certificates_ok(_certificates(line), target, req.data["factors"])
        name = req.data["name"]
        if not req.data["sr"]:
            want = f"NOT_SR obstruction={workloads.TABLE_OBSTRUCTIONS[name]}"
            return None if line == want else f"{name}: got {line!r}, want {want!r}"
        stored = [tuple(int(x) for x in a) for a in _ATOM.findall(req.data["fact"])]
        target = polys.parse(req.data["poly"])
        return self._certificates_ok(_certificates(line), target, stored)


# -- classify_wide ---------------------------------------------------------------


class _WideChecks:
    def __init__(self, requests, seed, table_rows):
        pass

    @staticmethod
    def _invariants(poly: dict) -> str:
        sym = "true" if polys.is_symmetric(poly) else "false"
        det = abs(sum(c * (-1) ** e for e, c in poly.items()))
        return f"delta2={polys.odd_part(polys.value(poly, 2))} det={det} symmetric={sym}"

    def check(self, i, req, out):
        line = out.strip()
        poly, shape = req.data["poly"], req.data["shape"]
        if req.kind == "invariants":
            want = self._invariants(poly)
            return None if line == want else f"{shape} invariants: got {line[:80]!r}"
        if shape == "asymmetric":
            if polys.is_symmetric(poly):
                return "asymmetric input is symmetric"
            want = "NOT_SR obstruction=ASYMMETRIC"
        else:
            if not polys.is_symmetric(poly):
                return f"{shape} input is not symmetric"
            delta2 = polys.odd_part(polys.value(poly, 2))
            if shape == "palindrome":
                q = req.data["q"]
                if delta2 % q or not workloads.primitive_root_two(q) or q - 1 <= 2 * delta2.bit_length():
                    return f"prime {q} does not certify the palindrome"
            elif max(poly) < 4:
                return "trinomial 1 - t^N + t^2N needs N >= 2"
            want = "NOT_SR obstruction=DELTA2_FACTOR"
        return None if line == want else f"{shape}: got {line!r}, want {want!r}"


# -- paper_grid --------------------------------------------------------------------


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def reduced_dets(eps, l) -> tuple[dict, dict]:
    """Bracket forms of |P - tQ^T| and |Q - tP^T|; they depend on eps only through p."""
    m, p = len(eps), eps.count(1)
    base = {k: _sign(k) * comb(m, k) for k in range(m + 1)}
    if l >= 0:
        det_p = _sub_mono(polys.shift(base, l), _sign(m - p), m - p)
        det_q = _sub_mono(base, _sign(p), l + p)
        sp, sq = _sign(1 - p), _sign(l + 1 - p)
    else:
        det_p = _sub_mono(base, _sign(m - p), m - p - l)
        det_q = _sub_mono(polys.shift(base, -l), _sign(p), p)
        sp, sq = _sign(1 - p), _sign(-l + 1 - p)
    return polys.shift(det_p, 0, sp), polys.shift(det_q, 0, sq)


def _sub_mono(poly: dict, coeff: int, exp: int) -> dict:
    out = dict(poly)
    out[exp] = out.get(exp, 0) - coeff
    return polys.clean(out)


def expected_scan(family: str, bounds: tuple) -> list[str]:
    """The hit lines the known solution families give for a box."""

    def fmt(hits):
        return ";".join("(" + ",".join(map(str, h)) + ")" for h in sorted(hits))

    def twos_plus_one(limit):
        return [a for a in range(2, limit + 1) if (a - 1) & (a - 2) == 0]

    if family == "catalan":
        x, y, u, v = bounds
        hits = [(3, 2, 2, 3)] if x >= 3 and y >= 2 and u >= 2 and v >= 3 else []
        return [f"hits={fmt(hits)}"]
    if family == "minus":
        a_max, m_max = bounds
        hits = [(a, 2, 1) for a in range(3, a_max + 1) if (a + 1) & a == 0] if m_max >= 2 else []
        return [f"hits={fmt(hits)}"]
    if family == "base":
        a_max, e_max = bounds
        odd = [(2, 3)] if e_max >= 3 else []
        even = [(a, 2) for a in twos_plus_one(a_max)] if e_max >= 2 else []
        return [f"odd_hits={fmt(odd)}", f"even_hits={fmt(even)}"]
    if family == "plus":
        a_max, m_max = bounds
        pp = [(2, 3, 1)] if m_max >= 3 else []
        pm = [(3, 1, 1)]
        pm += [(2, 3, 2)] if m_max >= 3 else []
        pm += [(3, 2, 4)] if m_max >= 4 else []
        pm += [(a, 1, 2) for a in twos_plus_one(a_max)] if m_max >= 2 else []
        return [f"plus_plus_hits={fmt(pp)}", f"plus_minus_hits={fmt(set(pm))}"]
    m_max, e = bounds
    r = range(1, e + 1)
    half = range(1, e // 2 + 1)
    shapes = [
        [],
        [(3, 1, q, 2 * q) for q in half] if m_max >= 3 else [],
        ([(3, 2, q, 2 * q) for q in half] if m_max >= 3 else []) + [(1, 2, k, k) for k in r],
        [],
        [(mm, 2 * mm, k, k, k) for mm in range(2, m_max // 2 + 1) for k in r]
        + [(1, 2, p, q, q) for p in r for q in r],
        [(1, 3, p, 2 * k, k) for p in r for k in half] if m_max >= 3 else [],
    ]
    return [f"shape{i}={fmt(hits)}" for i, hits in enumerate(shapes, start=1)]


def _admissible(m: int, n: int) -> str:
    if (m, n) == (3, 1):
        return "admissible=true family=(3,1)"
    if (m, n) == (3, 2):
        return "admissible=true family=(3,2)"
    if m == 2 * n:
        return "admissible=true family=(2n,n)"
    return "admissible=false"


def _sympy_pencil_det(A, B):
    """sympy's Matrix.det of A - t B^T, by fraction-free elimination over ZZ[t]."""
    n = len(A)
    M = sympy.Matrix(n, n, lambda i, j: A[i][j] - T * B[j][i])
    return _dict_from_sympy(M.det(method="domain-ge"))


class _GridChecks:
    # How many `seifert check` requests also get sympy's determinant.
    SYMPY_SAMPLE = 8

    def __init__(self, requests, seed, table_rows):
        self.table_rows = table_rows
        checks = [i for i, r in enumerate(requests) if r.kind == "check"]
        self.sympy_sample = set(random.Random(seed).sample(checks, self.SYMPY_SAMPLE))

    def check(self, i, req, out):
        lines = out.splitlines()
        kind = req.kind
        if kind == "check":
            fields = dict(line.split("=", 1) for line in lines)
            det_p, det_q = polys.parse(fields["det_P"]), polys.parse(fields["det_Q"])
            if fields["agree"] != "true":
                return "closed forms disagree"
            if polys.parse(fields["closed_P"]) != det_p or polys.parse(fields["closed_Q"]) != det_q:
                return "closed forms differ from the determinants"
            eps, l = req.data["eps"], req.data["l"]
            if (det_p, det_q) != reduced_dets(eps, l):
                return "determinants differ from the bracket forms"
            if i in self.sympy_sample:
                P, Q = workloads.fusion_blocks(eps, l)
                if _sympy_pencil_det(P, Q) != det_p or _sympy_pencil_det(Q, P) != det_q:
                    return "determinants differ from sympy Matrix.det"
            return None
        if kind == "alexander":
            d = req.data
            genus = _sympy_pencil_det(d["genus"], d["genus"])
            want = polys.normal(polys.mul(polys.fusion_factor(d["m"], d["l"], d["p"]), genus))
            got = polys.parse(lines[0])
            return None if got == want else "Alexander polynomial differs from F * genus part"
        if kind == "scan":
            want = expected_scan(req.data["family"], req.data["bounds"])
            return None if lines == want else f"scan hits {lines} differ from the known families"
        if kind == "pairs":
            want = _admissible(req.data["m"], req.data["n"])
            return None if lines == [want] else f"pairs: got {lines}, want {want!r}"
        rows = self.table_rows
        if lines[-1] != f"verified={rows}/{rows}" or any("FAIL" in line for line in lines):
            return "table verification failed"
        return None
