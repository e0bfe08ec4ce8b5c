"""framefx: steel frame design optimization with variable functioning.

A 2D frame finite-element engine, discrete W-shape design spaces, PSO/DE
optimizers with feasibility-rule constraint handling, differential-grouping
interaction analysis, and an experiment harness comparing three search
strategies (plain, profile-seeded initialization, fully reparameterized).
"""

# set before the submodules load: harness stamps it into every plan manifest
__version__ = "0.2.0"

from .evaluate import ConstraintSet, Evaluation, deb_compare, penalized_fitness
from .fea import AnalysisResult, FrameModel, analyze, frame_weight, member_max_stress
from .fx import FunctioningRule, alpha_max, expand_continuous, expand_discrete, \
    reduced_dimension
from .grouping import InteractionMatrix, interaction_matrix, render_matrix
from .harness import ExperimentPlan, improvement_vs_none, mean_history, \
    practicality_report, run_plan
from .optim import OptimizerConfig, RunRecord, de_run, initialize_population, pso_run
from .problems import Problem, SteppedColumnSpec, attach_fx, frame_problem, \
    stepped_column_problem
from .sections import SectionPool, SectionShape, circular_properties, \
    load_bundled_pool, load_section_table, pool_index_of_nearest_area

