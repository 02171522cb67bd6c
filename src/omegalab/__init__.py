"""omegalab: a desk-scale program-size complexity laboratory.

Concrete toy universal machines on which program-size complexity, capped
halting probabilities, elegance, and information-theoretic incompleteness
experiments can be computed exactly or bounded by exhaustive enumeration,
plus an ordinal-indexed fast-growing function hierarchy.
"""

__version__ = "0.1.0"

from .bits import BitString, Dyadic, bs_parse, dyadic_bits, is_prefix_free, kraft_sum
from .sexpr import SExpr, from_bits_prefix, parse, print_sexpr, to_bits
from .vm import RunOutcome, eval_expr
from .machines import Program, in_domain, output_of, run_c2, run_sd, run_total
