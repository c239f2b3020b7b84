"""Exact Macdonald P-polynomials via two independent combinatorial formulas.

The alcove-walk (Ram-Yip) sum runs over folding pairs along a fixed root
chain; the compressed formula runs over nonattacking fillings of the Young
diagram.  Both are evaluated in exact (q,t)-arithmetic and can be checked
against each other term by term, class by class, and against an
orthogonalization oracle at exact rational points.
"""

from .chain import (
    ChainEntry,
    LambdaChain,
    NonRegularError,
    Partition,
    build_chain,
    column_roots,
    column_roots_trimmed,
    render_chain,
)
from .compression import (
    fiber_witness,
    filling_map,
    group_fibers,
    verify_all_classes,
)
from .fillings import (
    AttackViolation,
    Filling,
    FillingStats,
    attacks,
    compressed_sum,
    compressed_term,
    count_nonattacking,
    enumerate_nonattacking,
    filling_stats,
    reading_precedes,
)
from .oracle import (
    check_specializations,
    dominance_le,
    macdonald_oracle,
    partitions_of,
    schur_oracle,
)
from .qt import (
    PoleError,
    RationalQT,
    rational_add,
    rational_eval_at,
    rational_reduce,
    symfun_add_term,
    symfun_str,
)
from .ramyip import (
    ClassifiedFolds,
    FoldingPair,
    TermCapExceeded,
    classify_folds,
    folded_weight,
    ram_yip_sum,
    walk_term,
)
from .weyl import (
    affine_reflect,
    is_bruhat_descent,
    perm_length,
    permute_weight,
    right_mul_transposition,
)

__version__ = "0.1.0"
