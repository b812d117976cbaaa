"""Exact symbolic toolkit for singular distributions of bracket-generating
polynomial frames: Goh matrices, Pfaffian-minor kernel generators,
divergence-control certificates, rank stratification, jet-level frame
normal forms and certified singular-path integration."""

from singfol.exactpoly import (
    JetSeries,
    NonUnitError,
    ParseError,
    Polynomial,
    SingfolError,
    Space,
    SpaceMismatchError,
    parse_expression,
)

__all__ = [
    "JetSeries",
    "NonUnitError",
    "ParseError",
    "Polynomial",
    "SingfolError",
    "Space",
    "SpaceMismatchError",
    "parse_expression",
]

__version__ = "0.1.0"
