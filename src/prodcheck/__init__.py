"""Productivity analysis for orthogonal stream specifications."""

from .equations import Caps
from .ioalg import (
    TOP,
    IOTerm,
    compose,
    interpret,
    least_fixed_point,
    normalize,
    parse_ioterm,
    remove_requirement,
    render,
)
from .prodterm import Box, Gate, Meet, Mu, Peb, Src, Var, collapse_trace, gate_apply
from .solver import infimum
from .streamspec import parse, validate, classify
from .translate import decide, translate_constant, translate_symbols

__all__ = [
    "TOP",
    "IOTerm",
    "compose",
    "infimum",
    "interpret",
    "least_fixed_point",
    "normalize",
    "parse_ioterm",
    "remove_requirement",
    "render",
    "Box",
    "Gate",
    "Meet",
    "Mu",
    "Peb",
    "Src",
    "Var",
    "collapse_trace",
    "gate_apply",
    "parse",
    "validate",
    "classify",
    "Caps",
    "decide",
    "translate_constant",
    "translate_symbols",
]
