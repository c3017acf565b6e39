"""Exact-arithmetic toolkit for Alexander polynomials of simple-ribbon knots.

Laurent polynomial arithmetic over the integers, the fusion-factor product
formula and its block Seifert matrix counterpart, decomposition search with
obstruction pipeline, integer scans for determinant power products, and a
verified reference table of ribbon knots with up to ten crossings.
"""

from .laurent import (
    LaurentPoly,
    NormalForm,
    PolyParseError,
    divide_exact,
    equal_up_to_unit,
    eval_int,
    normalize,
    parse,
    substitute_inverse,
)
from .srpoly import (
    SRDecomposition,
    SRParams,
    F_factor,
    f_factor,
    factor_span,
    gh_factors,
    mirror,
    mirror_identity_check,
    parse_decomposition,
    product_formula,
)
from .invariants import delta2, is_pm_power_product, knot_det, symmetry_check
from .seifert import (
    FusionSigns,
    SeifertBlocks,
    SeifertMatrix,
    alexander_from_fusion,
    alexander_from_seifert,
    build_blocks,
    closed_form_dets,
    det_P_minus_tQT,
    det_Q_minus_tPT,
    parse_matrix,
    reduced_form_dets,
    symbolic_det,
)
from .srsearch import (
    DELTA2_ONE_QUARTIC,
    Obstruction,
    SRClassification,
    Verdict,
    classify,
    decompose,
    delta2_one_factors,
)
from .numtheory import (
    FactorSet,
    PairVerdict,
    admissible_pair,
    catalan_scan,
    det_constraint,
    factorize,
    gcd_structure,
    prime_factor_set,
    scan_base_match,
    scan_det_power_products,
    scan_minus_match,
    scan_plus_match,
)
from .corpus import (
    CorpusError,
    KnotRecord,
    RecordReport,
    bundled_corpus_path,
    load_corpus,
    save_corpus,
    verify_corpus,
    verify_record,
)

__version__ = "0.1.0"
