"""Multi-trip AMR routing under stochastic travel and service times.

Chance-constrained time windows, capacity and battery limits, a variable
neighborhood search solver, an exact enumeration oracle for small instances
and a Monte Carlo plan validator.
"""

from .model import (AmrParams, CostParams, Gaussian, Instance, InstanceError,
                    Request, Solution, StochasticParams, StructuralError,
                    load_instance, normalize_solution, scale_distance,
                    scale_variance, serialize_instance, solution_from_ids)
from .stochastic import (NodeTiming, normal_quantile, truncated_start,
                         violation_probability)
from .evaluation import (SolutionEvaluation, TripEvaluation, evaluate_solution,
                         evaluate_trip, route_table, solution_cost,
                         solution_to_dict)
from .operators import (amr_decrease, charging_insert_repair,
                        depot_insert_repair, relocation_star, shake_2opt_l,
                        swap_star, two_opt_star)
from .vns import feasible_operation, greedy_initial, local_search, shaking, solve
from .oracle import McReport, NoFeasibleSolution, exact_solve, mc_validate

__version__ = "0.1.0"
