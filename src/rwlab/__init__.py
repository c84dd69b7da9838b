"""String rewriting lab.

Monoid presentations with shortlex rewriting, critical-peak analysis and
bounded Knuth-Bendix completion, derivation-graph paths with a two-sided
free-monoid action, exact monoid-ring arithmetic, a ring-valued path
invariant with closed forms for the bundled critical-circuit families, and
structural computations (H-class tags, stabilizer congruence, Cayley-ball
semimetrics and isometry checks) for the bundled case-study systems.
"""

from .core import (
    Alphabet,
    OrderingSpec,
    ParseError,
    Presentation,
    Rule,
    RuleSchema,
    RwlabError,
    ValidationError,
    Word,
    formal_inverse,
    instantiate_schema,
    parse_presentation,
    pretty_print,
    word,
    word_str,
)
from .rewrite import (
    compare_shortlex,
    enumerate_normal_forms,
    find_redexes,
    normalize,
    reduction_path,
    rewrite_at,
)
from .squier import Edge, Path, act, compose, interchange_square, invert, lift_path
from .completion import (
    CriticalCircuit,
    CriticalPeak,
    UnresolvedPeak,
    bfs_equivalence_oracle,
    critical_peaks,
    is_confluent_bounded,
    knuth_bendix,
    resolve_peak,
    word_problem_equal,
)
from .ring import RingElement, add, format_ring, from_word, negate, right_mul, scale
from .invariant import (
    CtParams,
    CASE_STUDY_WEIGHTS,
    WeightSpec,
    closed_form_ct,
    commutator,
    partial_derivation,
    phi_edge,
    phi_path,
)
from .obstruction import (
    CosetVector,
    Witness,
    b_exponent,
    basepoint_apply,
    commutator_witness,
    hn_member,
    phi_to_x_witness,
    x_generator,
    x_generator_a,
)
from .structure import Ball, HClass, cayley_ball, classify, d_A, isometry_check, sigma_equal
from .casestudy import (
    build_C_path,
    build_ct_circuit,
    build_presentations,
    preset,
    verify_figure2,
    verify_identities,
    verify_isometry,
    verify_obstruction,
    verify_prop31,
)

__all__ = [name for name in dir() if not name.startswith("_")]
