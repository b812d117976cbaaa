"""The record classes: value equality, hashing, immutability and repr, the
same on each of them, from ``exactpoly._Record``."""

import inspect
from fractions import Fraction

import numpy as np
import pytest

from singfol.abnormal import (AbnormalGenerator, DivergenceCertificate, GohMatrix,
                              SamplerConfig, Stratification, Stratum, Witness,
                              abnormal_generators, divergence_certificate, goh_matrix, stratify)
from singfol.demos import DemoFrame, demo_frame
from singfol.dynamics import (DivergenceScan, Trajectory, VolumeReport, divergence_ratio_scan,
                              integrate_field, volume_distortion)
from singfol.exactpoly import Polynomial, Space, SpaceMismatchError
from singfol.normalform import JetFrame
from singfol.pfaffian import KernelGenerator, kernel_generators
from singfol.vectorfield import Frame, VectorField


def generator():
    return abnormal_generators(demo_frame("dim4"), 2)[0]


def witness():
    return Witness((Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(-1, 3)), 0, True)


# numpy arrays do not compare to one bool, so the two reports share arrays
REPORT = volume_distortion(generator().Z, [[0.1, 0.0, 0.1, 0.0]], 0.01, 0.001)

# each builds a new record from new field values, equal to the last ones
BUILDERS = {
    Space: lambda: Space(3, True),
    Frame: lambda: demo_frame("dim4"),
    KernelGenerator: lambda: kernel_generators(goh_matrix(demo_frame("dim4")).H, 2)[0],
    GohMatrix: lambda: goh_matrix(demo_frame("dim4")),
    AbnormalGenerator: generator,
    DivergenceCertificate: lambda: divergence_certificate(generator(), demo_frame("dim4")),
    SamplerConfig: lambda: SamplerConfig(7, 16, (Fraction(-1, 2), Fraction(1, 2))),
    Witness: witness,
    Stratum: lambda: Stratum(2, 2, True, 16, (witness(),),
                             (Polynomial.variable(Space(2), 0),), True),
    Stratification: lambda: stratify(demo_frame("dim4"), SamplerConfig(7, 16)),
    DemoFrame: lambda: DemoFrame("heisenberg", 3, ("0", "x1"), "the Heisenberg frame"),
    JetFrame: lambda: JetFrame.from_frame(demo_frame("dim4"), 2),
    Trajectory: lambda: integrate_field(generator().Z, [0.1, 0.0, 0.1, 0.0], 0.01, 0.001),
    DivergenceScan: lambda: divergence_ratio_scan(generator().Z, (-0.5, 0.5), 16, 7, 1e-3),
    VolumeReport: lambda: VolumeReport(REPORT.times, REPORT.weights, REPORT.lengths,
                                       REPORT.min_weights),
}


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_records_compare_by_value_hash_and_refuse_assignment(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert type(a) is type(b) is cls and a is not b
    # the fields are __init__'s parameters, in order
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    assert a == b and not a != b
    assert a != object() and not a == object()
    values = tuple(getattr(a, name) for name in cls._fields)
    name = cls._fields[0]
    if cls is Trajectory:
        # the one mutable record: assignment works, and it does not hash
        assert cls.__hash__ is None
        a.h = 2 * a.h
        assert a != b
        return
    try:
        hash(values)
    except TypeError:
        # a SkewMatrix or numpy field: the record does not hash either
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(a, name, values[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(a, name)
    assert a == b


def test_record_repr_names_the_fields():
    assert repr(Space(3)) == "Space(n=3, fiber=False)"
    assert Space(3) != Space(3, True)
    with pytest.raises(SpaceMismatchError,
                       match=r"Space\(n=2, fiber=False\) vs Space\(n=2, fiber=True\)"):
        Polynomial.zero(Space(2)) + Polynomial.zero(Space(2, True))
    with pytest.raises(ValueError, match=r"a field over Space\(n=2, fiber=True\) needs 4"):
        VectorField([Polynomial.zero(Space(2, True))] * 2)
    assert repr(witness()) == ("Witness(x=(Fraction(1, 2), Fraction(0, 1)), "
                               "p=(Fraction(1, 1), Fraction(-1, 3)), kernel_dim=0, exact=True)")
    # the states and the costate forms are left out
    traj = BUILDERS[Trajectory]()
    assert repr(traj) == "Trajectory(n=4, h=0.001)"
    assert isinstance(traj.states, np.ndarray)
