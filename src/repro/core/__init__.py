"""SEANCE: the paper's synthesis pipeline (Figure 3, Steps 4-7).

This package holds the paper's primary contribution: the excitation model
of the encoded machine, the output/SSD determination stage, the Figure-4
hazard search, the fantom-state-variable construction and the Figure-5
hazard factoring.  :mod:`repro.pipeline` runs them as passes;
:mod:`repro.api` is the front door.
"""

from .factoring import FactoredEquation, factor_fsv, factor_next_state
from .fsv import (
    FSV_NAME,
    doubled_names,
    fsv_function,
    next_state_function,
    next_state_functions,
    state_space_growth,
)
from .hazard_analysis import HazardAnalysis, find_hazards
from .outputs import OutputEquation, synthesize_outputs
from .result import SynthesisResult
from .spec import SpecifiedMachine
from .ssd import SsdEquation, synthesize_ssd

# Imported last: repro.pipeline's passes import the core submodules
# above while this package is mid-initialisation.
from ..pipeline.options import SynthesisOptions

__all__ = [
    "FSV_NAME",
    "FactoredEquation",
    "HazardAnalysis",
    "OutputEquation",
    "SpecifiedMachine",
    "SsdEquation",
    "SynthesisOptions",
    "SynthesisResult",
    "doubled_names",
    "factor_fsv",
    "factor_next_state",
    "find_hazards",
    "fsv_function",
    "next_state_function",
    "next_state_functions",
    "state_space_growth",
    "synthesize_outputs",
    "synthesize_ssd",
]
