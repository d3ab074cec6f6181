"""Intersection non-emptiness for regular languages recognized by finite semigroups."""

from .circuits import (BooleanCircuit, circuit_eval, circuit_size_bound, morphism_image_bits,
                       semigroup_table_bits, slp_to_circuit)
from .core import (AssociativityError, DistinguishedElements, Morphism, Semigroup,
                   apply_morphism, check_associative, direct_product, distinguished_elements,
                   local_monoid, monogenic_orders, multiply, power, product_morphism,
                   sub_semigroup, subsemigroup_closure)
from .reductions import (Assignment, AssignmentUndefinedError, CnfFormula, assignment_to_word,
                         parse_dimacs, reduce_nilpotent, reduce_unbounded, reduction_alphabet,
                         sat_solve_exhaustive, word_to_assignment)
from .slp import (Slp, SlpCycleError, SlpLimitError, canonical_slp, enumerate_slps, power_slp,
                  slp_eval_word, slp_image, slp_stats, validate_slp)
from .solve import (Constraint, Instance, PreconditionError, SolveResult, SolveStats,
                    StateCapError, VerifyResult, Witness, bounded_solve, brute_force_solve,
                    comli_solve, enum_slp_solve, li_solve, li_witness_shorten, verify_witness)
from .varieties import (ClassificationReport, classify, is_a2n, is_commutative, is_group,
                        is_li, is_monoid, is_nilpotent, li_degree, satisfies_li_k)

__version__ = "0.1.0"
