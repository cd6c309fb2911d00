"""Shifted semistandard tableaux on the primed alphabet: jeu de taquin,
tableau switching, Bender-Knuth involutions, and a relation-verification
engine for the groups they generate."""

from .core import (CapacityError, Entry, InvalidTableauError, ShiftedSkewShape,
                   ShiftedTableau, StrictPartition, TableauError, canonicalize,
                   from_json, parse_tableau, reading_word, render_text,
                   standardize, to_json, weight)
from .enumeration import TableauFamily, enumerate_tableaux, skew_shapes, \
    straight_shapes
from .jdt import (SlideRecord, complement, dual_equivalent, evacuation_jdt, eta,
                  inner_slide, knuth_equivalent, outer_slide, rectify, reversal,
                  sigma)
from .switching import (PerforatedFilling, PerforatedPair, SwitchingError,
                        TraceStep, evac_interval_skew, evac_k_skew,
                        evac_k_switch, evac_skew, evac_switch, full_switch,
                        switch_pair)
from .bender_knuth import bk, bk_trace, promotion, q, q_interval
from .engine import (Counterexample, GeneratorSymbol, OrbitGraph, PresetResult,
                     RelationSchema, Verdict, WordError,
                     components_by_dual_equivalence, eval_word, orbit_graph,
                     parse_word, run_preset, search_counterexample,
                     verify_cactus_action, verify_relation,
                     verify_relation_over, word_permutation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
