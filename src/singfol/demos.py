"""Built-in demonstration frames.

Each demo is a corank-1 frame X^i = d_i + A_i d_n given by its coefficient
expressions, together with a short provenance note describing the
construction.  They double as ground-truth fixtures for the test suite.
"""

from __future__ import annotations

from singfol.exactpoly import Space, _Record, parse_expression
from singfol.vectorfield import Frame

__all__ = ["DemoFrame", "DEMOS", "demo_frame", "demo_names"]


class DemoFrame(_Record):
    _fields = ("name", "dimension", "coefficients", "description", "caveat")

    def __init__(self, name: str, dimension: int, coefficients: tuple[str, ...],
                 description: str, caveat: str = ""):
        self.__dict__.update(name=name, dimension=dimension, coefficients=coefficients,
                             description=description, caveat=caveat)

    def build(self) -> Frame:
        space = Space(self.dimension)
        coeffs = tuple(parse_expression(text, space) for text in self.coefficients)
        return Frame.corank1(self.dimension, coeffs, name=self.name)

    def to_spec(self) -> dict:
        return {
            "dimension": self.dimension,
            "rank": self.dimension - 1,
            "normal_form": list(self.coefficients),
            "name": self.name,
            "description": self.description,
            **({"caveat": self.caveat} if self.caveat else {}),
        }


DEMOS: dict[str, DemoFrame] = {
    "martinet": DemoFrame(
        name="martinet",
        dimension=3,
        coefficients=("0", "x1^2"),
        description=(
            "Rank-2 frame in R^3 with A = (0, x1^2); the singular surface is "
            "the plane x1 = 0, the prototype of a Pfaffian vanishing locus."
        ),
    ),
    "dim4": DemoFrame(
        name="dim4",
        dimension=4,
        coefficients=("x2", "x4", "x1^2"),
        description=(
            "Rank-3 frame in R^4 with A = (x2, x4, x1^2).  The kernel line is "
            "generated by a single vector field whose divergence is an exact "
            "combination of its own components (coefficients proportional to "
            "dA_j/dx4)."
        ),
    ),
    "dim4-engel": DemoFrame(
        name="dim4-engel",
        dimension=4,
        coefficients=("0", "x1", "x2"),
        description=(
            "Engel-type rank-3 frame in R^4 with A = (0, x1, x2); the reduced "
            "Goh matrix has constant rank 2, the kernel generator is "
            "divergence free and its flow is linear."
        ),
    ),
    "dim5": DemoFrame(
        name="dim5",
        dimension=5,
        coefficients=("0", "x1", "x1", "(x2+x3)^2"),
        description=(
            "Rank-4 frame in R^5 with A = (0, x1, x1, (x2+x3)^2), engineered "
            "so the reduced Goh matrix has rank 2 everywhere; its 4x4 "
            "Pfaffian vanishes identically and four kernel generators with "
            "controlled divergence span a rank-2 distribution."
        ),
    ),
    "dim6-cubic": DemoFrame(
        name="dim6-cubic",
        dimension=6,
        coefficients=("0", "x1", "-x1", "(x2+x3)^3", "0"),
        description=(
            "Rank-5 frame in R^6 with A = (0, x1, -x1, R(x2+x3), 0) and "
            "R(u) = u^3, so R'(u) = 3u^2.  The kernel dimension is 1 off the "
            "hyperplane x2+x3 = 0 and jumps to 3 on it."
        ),
        caveat=(
            "R(u) = u^3 keeps the kernel-dimension dichotomy {1 off x2+x3=0, "
            "3 on it} but its critical set is a hyperplane of measure zero; a "
            "smooth R whose derivative vanishes on a fat Cantor set would "
            "make the singular locus have positive measure, which no "
            "polynomial R can reproduce."
        ),
    ),
}


def demo_names() -> list[str]:
    return list(DEMOS)


def demo_frame(name: str) -> Frame:
    if name not in DEMOS:
        raise KeyError(f"unknown demo '{name}' (available: {', '.join(DEMOS)})")
    return DEMOS[name].build()
