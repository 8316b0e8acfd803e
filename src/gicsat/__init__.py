"""Sensor placement on graphs via grouped independent support extraction.

The pipeline: parse a graph, encode failure detection plus a cardinality
bound into CNF with one two-variable group per node, then greedily drop
groups whose variables are functionally defined by the rest, checked with
incremental satisfiability queries.  The surviving groups are the sensors.
"""

from .graph import (Graph, GraphParseError, build_graph, closed_neighborhood,
                    closed_neighborhood_set, parse_graph, parse_graph_file)
from .satcore import (CdclSolver, CnfFormula, ModelCapExceeded, SolveOutcome,
                      SolveStatus, check_model, engine_factory,
                      enumerate_models_projected, read_dimacs, write_dimacs)
from .encoder import (EncodedInstance, encode_cardinality, encode_detection,
                      encode_instance)
from .definability import DefinabilityContext, QueryAnswer
from .gismo import GismoConfig, GisResult, GroupLog, run_gismo
from .oracle import (EnumerationBudgetError, Signature, failure_set_count,
                     find_signature_collision, is_gics, is_gis_bruteforce,
                     min_gics_exhaustive, projected_models, signature)

__version__ = "0.1.0"
