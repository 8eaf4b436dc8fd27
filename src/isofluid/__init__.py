"""Pseudospectral simulator and diagnostics for the rescaled isothermal
quantum Navier-Stokes-Korteweg system on a periodic box."""

__version__ = "0.1.0"

from .params import ParamSet
from .spectral import Grid
from .rescaling import FluidState, WaveFunction, to_self_similar, from_self_similar, madelung
from .tauode import TauSolution, tau_solve, tau_asymptotic_ratio
from .solver import Trajectory, rhs, run, prepare_initial_data, drag_schedule
from .lognls import NlsParams, nls_step, run_nls

__all__ = [
    "ParamSet",
    "Grid",
    "FluidState",
    "WaveFunction",
    "to_self_similar",
    "from_self_similar",
    "madelung",
    "TauSolution",
    "tau_solve",
    "tau_asymptotic_ratio",
    "Trajectory",
    "rhs",
    "run",
    "prepare_initial_data",
    "drag_schedule",
    "NlsParams",
    "nls_step",
    "run_nls",
]
