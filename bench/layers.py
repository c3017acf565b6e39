"""Per-layer call counts and self times, taken from outside the program.

`install` replaces chosen `srknots` functions with timing wrappers in every
module namespace that holds them, which is where callers look them up
(for example `srknots.srsearch.divide_exact`), and wraps `LaurentPoly`
multiplication and its `span` property on the class.  A wrapper's self
time is its duration minus the time of wrapped calls made inside it.  A
name the program no longer has is reported as absent, never an error.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (metric prefix, module, attribute) of the timed functions.
TIMED = (
    ("cli.main", "cli", "main"),
    ("srsearch.decompose", "srsearch", "decompose"),
    ("srsearch.candidate_table", "srsearch", "_candidates"),
    ("laurent.divide_exact", "laurent", "divide_exact"),
    ("laurent.eval_int", "laurent", "eval_int"),
    ("laurent.parse", "laurent", "parse"),
    ("laurent.normalize", "laurent", "normalize"),
    ("srpoly.F_factor", "srpoly", "F_factor"),
    ("srpoly.product_formula", "srpoly", "product_formula"),
    ("invariants.symmetry_check", "invariants", "symmetry_check"),
    ("invariants.delta2", "invariants", "delta2"),
    ("invariants.is_pm_power_product", "invariants", "is_pm_power_product"),
    ("seifert.symbolic_det", "seifert", "symbolic_det"),
    ("seifert.closed_form_dets", "seifert", "closed_form_dets"),
    ("numtheory.factorize", "numtheory", "factorize"),
    ("numtheory.scan", "numtheory", "catalan_scan"),
    ("numtheory.scan", "numtheory", "scan_minus_match"),
    ("numtheory.scan", "numtheory", "scan_base_match"),
    ("numtheory.scan", "numtheory", "scan_plus_match"),
    ("numtheory.scan", "numtheory", "scan_det_power_products"),
    ("corpus.verify_corpus", "corpus", "verify_corpus"),
)

MUL_BUCKETS = ("len_le8", "len_9_32", "len_gt32")
BITS_BUCKETS = ("bits_le64", "bits_65_4096", "bits_gt4096")
DET_BUCKETS = ("n_le4", "n_5_12", "n_ge13")
_BUCKETED = {
    "laurent.mul": MUL_BUCKETS,
    "invariants.is_pm_power_product": BITS_BUCKETS,
    "seifert.symbolic_det": DET_BUCKETS,
}


def _metric_names() -> list[tuple[str, str]]:
    out = []
    prefixes = list(dict.fromkeys(p for p, _, _ in TIMED))
    prefixes.insert(prefixes.index("laurent.parse"), "laurent.mul")
    for prefix in prefixes:
        for leaf in _BUCKETED.get(prefix, ("",)):
            base = f"{prefix}.{leaf}" if leaf else prefix
            out += [(f"{base}.calls", "count"), (f"{base}.self_ms", "ms")]
    out += [
        ("laurent.span.calls", "count"),
        ("laurent.divide_exact.hit_ratio", "ratio"),
        ("srsearch.decompose.certificates", "count"),
        ("srsearch.candidates", "count"),
        ("srsearch.candidate_polys", "count"),
        ("numtheory.prime_support.hit_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


# Every per-layer metric, with its unit, in report order.
METRICS = _metric_names()

# Metrics whose first two name parts are not the name of what they measure.
_OWNERS = {
    "srsearch.candidates": "srsearch.candidate_table",
    "srsearch.candidate_polys": "srsearch.candidate_table",
}


def _bucket(value: int, edges: tuple, names: tuple) -> str:
    for edge, name in zip(edges, names):
        if value <= edge:
            return name
    return names[-1]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.present: set[str] = set()
        self._stack = [0.0]
        self._span = None
        self._prime_support = None

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name, fn, bucket=None, after=None):
        stats, stack = self.stats, self._stack

        def wrapper(*args, **kwargs):
            key = name if bucket is None else f"{name}.{bucket(*args)}"
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stack[-1] += elapsed
                rec = stats.setdefault(key, [0, 0.0])
                rec[0] += 1
                rec[1] += elapsed - inner
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _length(self, poly) -> int:
        return (self._span(poly) if self._span else getattr(poly, "span", 0)) + 1

    def _after_candidates(self, result) -> None:
        self._count("srsearch.candidates", len(result))
        polys = {getattr(c, "poly", c) for c in result}
        self._count("srsearch.candidate_polys", len(polys))

    def _after_divide(self, result) -> None:
        self._count("laurent.divide_exact.hits", result is not None)

    def install(self) -> None:
        pkg = importlib.import_module("srknots")
        modules = [pkg] + [
            m for name, m in sys.modules.items() if name.startswith("srknots.") and m
        ]
        hooks = {
            "srsearch.decompose": (None, lambda r: self._count("srsearch.decompose.certificates", len(r))),
            "srsearch.candidate_table": (None, self._after_candidates),
            "laurent.divide_exact": (None, self._after_divide),
            "invariants.is_pm_power_product": (
                lambda n: _bucket(n.bit_length(), (64, 4096), BITS_BUCKETS), None),
            "seifert.symbolic_det": (lambda rows: _bucket(len(rows), (4, 12), DET_BUCKETS), None),
        }
        for prefix, mod_name, attr in TIMED:
            mod = sys.modules.get(f"srknots.{mod_name}")
            original = getattr(mod, attr, None) if mod else None
            if not callable(original):
                continue
            bucket, after = hooks.get(prefix, (None, None))
            wrapped = self._wrap(prefix, original, bucket, after)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)
            self.present.add(prefix)
        self._install_laurent_class(sys.modules.get("srknots.laurent"))
        numtheory = sys.modules.get("srknots.numtheory")
        support = getattr(numtheory, "_prime_support", None)
        if hasattr(support, "cache_info"):
            self._prime_support = support
            self.present.add("numtheory.prime_support")

    def _install_laurent_class(self, laurent) -> None:
        cls = getattr(laurent, "LaurentPoly", None)
        if cls is None:
            return
        if isinstance(vars(cls).get("span"), property):
            self._span = span_get = vars(cls)["span"].fget
            rec = self.stats["laurent.span"] = [0, 0.0]

            def counted(poly):
                rec[0] += 1
                return span_get(poly)

            cls.span = property(counted)
            self.present.add("laurent.span")
        mul = vars(cls).get("__mul__")
        if mul is None:
            return

        def by_length(a, b=None):
            longest = self._length(a)
            if isinstance(b, cls):
                longest = max(longest, self._length(b))
            return _bucket(longest, (8, 32), MUL_BUCKETS)

        wrapped = self._wrap("laurent.mul", mul, by_length)
        cls.__mul__ = wrapped
        if vars(cls).get("__rmul__") is mul:
            cls.__rmul__ = wrapped
        self.present.add("laurent.mul")

    def metrics(self) -> dict:
        """Every per-layer metric but the overhead ratio; None marks one the program lacks."""
        out = {}
        for name, _ in METRICS[:-1]:
            base, _, leaf = name.rpartition(".")
            owner = ".".join(name.split(".")[:2])
            if _OWNERS.get(owner, owner) not in self.present:
                out[name] = None
            elif leaf == "calls":
                out[name] = self.stats.get(base, [0, 0.0])[0]
            elif leaf == "self_ms":
                out[name] = self.stats.get(base, [0, 0.0])[1] * 1000
            elif name == "laurent.divide_exact.hit_ratio":
                calls = self.stats.get(base, [0])[0]
                out[name] = self.counts.get("laurent.divide_exact.hits", 0) / calls if calls else 0.0
            elif name == "numtheory.prime_support.hit_ratio":
                info = self._prime_support.cache_info()
                total = info.hits + info.misses
                out[name] = info.hits / total if total else 0.0
            else:
                out[name] = self.counts.get(name, 0)
        return out
