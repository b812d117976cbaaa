"""Numeric integration of base vector fields with certification residuals,
plus divergence-ratio scans and Monte-Carlo volume-distortion diagnostics.

Integration is classical fixed-step RK4: deterministic, reproducible runs
beat adaptive efficiency at the scales used here.  Certified trajectories
of a corank-1 kernel generator carry, per step,

* the Goh residual  ||Ht(x(t)) . u(t)||_inf  where u(t) are the frame
  coefficients of the generator (exactly the reduced Pfaffian cofactors, a
  kernel vector of Ht wherever the rank matches), and
* the annihilation residual  max_i |p(t) . X^i(x(t))|  for the canonical
  lift p = (-A_1(x), ..., -A_{n-1}(x), 1), which vanishes by construction.

Horizontality of the path is structural (the generator is an explicit
frame combination), so it is recorded rather than measured.

All vector norms in this module are sup norms; the scan's ratio estimate
|div Z| / |Z|_inf is then bounded by the sum of the certificate
coefficients |c_j| evaluated pointwise, which the tests exploit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from singfol.abnormal import AbnormalGenerator, GohMatrix, goh_matrix
from singfol.vectorfield import Frame, VectorField, divergence

__all__ = [
    "Trajectory",
    "DivergenceScan",
    "VolumeReport",
    "BlowUpError",
    "integrate_field",
    "abnormal_trajectory",
    "divergence_ratio_scan",
    "volume_distortion",
    "sample_cloud",
]


class BlowUpError(RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, last_valid_time: float):
        super().__init__(f"trajectory blew up after t = {last_valid_time}")
        self.last_valid_time = last_valid_time


@dataclass
class Trajectory:
    """A fixed-step trajectory with optional certification residuals."""

    times: np.ndarray
    states: np.ndarray
    h: float
    costates: np.ndarray | None = None
    goh_residuals: np.ndarray | None = None
    annihilation_residuals: np.ndarray | None = None
    tolerance: float | None = None
    horizontal_by_construction: bool = False

    @property
    def certified(self) -> bool:
        if self.goh_residuals is None or self.tolerance is None:
            return False
        return (float(np.max(self.goh_residuals)) <= self.tolerance
                and float(np.max(self.annihilation_residuals)) <= self.tolerance)

    def violations(self) -> list[tuple[float, float]]:
        """(time, Goh residual) pairs exceeding the tolerance."""
        if self.goh_residuals is None or self.tolerance is None:
            return []
        bad = np.nonzero(self.goh_residuals > self.tolerance)[0]
        return [(float(self.times[i]), float(self.goh_residuals[i])) for i in bad]

    def to_csv(self, seed: int | None = None) -> str:
        """Rows "t, x1..xn, residual_b, residual_c" under a header comment."""
        T = float(self.times[-1]) if len(self.times) else 0.0
        lines = [f"# seed={seed if seed is not None else 'none'}, h={self.h!r}, T={T!r}"]
        n = self.states.shape[1]
        lines.append("t," + ",".join(f"x{k + 1}" for k in range(n)) + ",residual_b,residual_c")
        for i, t in enumerate(self.times):
            rb = self.goh_residuals[i] if self.goh_residuals is not None else 0.0
            rc = self.annihilation_residuals[i] if self.annihilation_residuals is not None else 0.0
            coords = ",".join(repr(float(v)) for v in self.states[i])
            lines.append(f"{float(t)!r},{coords},{float(rb)!r},{float(rc)!r}")
        return "\n".join(lines) + "\n"


def _rhs(V: VectorField):
    comps = V.components

    def f(state: np.ndarray) -> np.ndarray:
        point = state.tolist()
        try:
            return np.array([c.eval_float(point) for c in comps], dtype=float)
        except OverflowError:
            # float exponentiation overflowed: treat as a blown-up state
            return np.full(len(comps), np.inf)

    return f


def integrate_field(V: VectorField, x0: Sequence[float], T: float, h: float) -> Trajectory:
    """Classical RK4 with a fixed step; raises BlowUpError on non-finite states."""
    if V.kind != "base":
        raise ValueError("integration is over base fields")
    if h <= 0 or T < 0:
        raise ValueError("need h > 0 and T >= 0")
    steps = int(round(T / h))
    f = _rhs(V)
    x = np.array([float(v) for v in x0], dtype=float)
    states = [x.copy()]
    for i in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise BlowUpError(i * h)
        states.append(x.copy())
    times = np.arange(steps + 1) * h
    return Trajectory(times, np.array(states), h)


def abnormal_trajectory(F: Frame, g: AbnormalGenerator, x0: Sequence[float],
                        T: float, h: float, tolerance: float = 1e-10,
                        goh: GohMatrix | None = None) -> Trajectory:
    """Integrate the base projection of a generator and certify each step.

    The lift uses the p_n = 1 gauge (the annihilator of a corank-1 frame is
    a dilation-invariant graph, so the choice is harmless).  Residuals above
    ``tolerance`` are kept in the returned object; inspect ``certified`` /
    ``violations()`` rather than expecting an exception.  ``goh`` reuses a
    Goh matrix already built for F.
    """
    if F.normal_form is None or g.Z is None:
        raise ValueError("certified integration needs a corank-1 generator with projection")
    traj = integrate_field(g.Z, x0, T, h)
    m = F.m
    if goh is None:
        goh = goh_matrix(F)
    assert goh.reduced is not None
    coeff_by_index = {i: c for i, c in zip(g.I, g.reduced_coefficients)}
    costates = []
    goh_res = []
    anni_res = []
    for state in traj.states:
        point = state.tolist()
        A_vals = [A.eval_float(point) for A in F.normal_form]
        p = np.array([-a for a in A_vals] + [1.0])
        u = np.array([coeff_by_index[i].eval_float(point) if i in coeff_by_index else 0.0
                      for i in range(1, m + 1)])
        Ht = np.array([[goh.reduced.entry(i, j).eval_float(point)
                        for j in range(1, m + 1)] for i in range(1, m + 1)])
        goh_res.append(float(np.max(np.abs(Ht @ u))) if m else 0.0)
        anni = max(abs(float(np.dot(p, X.evaluate(point)))) for X in F.fields)
        anni_res.append(anni)
        costates.append(p)
    return Trajectory(traj.times, traj.states, h, np.array(costates),
                      np.array(goh_res), np.array(anni_res), tolerance,
                      horizontal_by_construction=True)


@dataclass(frozen=True)
class DivergenceScan:
    """Empirical estimate of sup |div Z| / |Z|_inf over a box.

    ``ratio_sup`` is a max over finitely many samples: an estimate, never a
    certified supremum.  Samples with |Z|_inf below the cutoff are skipped;
    the ones within a factor 2 of the cutoff are reported as offenders
    (they sit near the singular set where the ratio degenerates to 0/0).
    """

    box: tuple[float, float]
    samples: int
    seed: int
    cutoff: float
    ratio_sup: float
    argmax: tuple[float, ...] | None
    offenders: tuple[tuple[float, ...], ...]
    skipped: int


def divergence_ratio_scan(Z: VectorField, box: tuple[float, float], samples: int,
                          seed: int, cutoff: float) -> DivergenceScan:
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    rng = random.Random(seed)
    div = divergence(Z)
    lo, hi = float(box[0]), float(box[1])
    best = 0.0
    argmax = None
    offenders = []
    skipped = 0
    for _ in range(samples):
        x = [rng.uniform(lo, hi) for _ in range(Z.n)]
        znorm = max(abs(c.eval_float(x)) for c in Z.components)
        if znorm < cutoff:
            skipped += 1
            continue
        if znorm < 2.0 * cutoff and len(offenders) < 16:
            offenders.append(tuple(x))
        ratio = abs(div.eval_float(x)) / znorm
        if ratio > best:
            best = ratio
            argmax = tuple(x)
    return DivergenceScan((lo, hi), samples, seed, cutoff, best, argmax,
                          tuple(offenders), skipped)


@dataclass(frozen=True)
class VolumeReport:
    """Per-time volume weights exp(integral of div Z) along a trajectory cloud.

    ``weights[i, t]`` is the Liouville volume factor of cloud point i at
    grid time t (trapezoid quadrature); ``lengths[i]`` is the accumulated
    sup-norm length of trajectory i at the final time.
    """

    times: np.ndarray
    weights: np.ndarray
    lengths: np.ndarray
    min_weights: np.ndarray

    def min_final_weight(self) -> float:
        return float(self.min_weights[-1])


def sample_cloud(box: tuple[float, float], count: int, n: int, seed: int) -> list[list[float]]:
    rng = random.Random(seed)
    lo, hi = float(box[0]), float(box[1])
    return [[rng.uniform(lo, hi) for _ in range(n)] for _ in range(count)]


def volume_distortion(Z: VectorField, cloud: Sequence[Sequence[float]],
                      T: float, h: float) -> VolumeReport:
    """Monte-Carlo volume factors along the flow of Z.

    Each cloud point is integrated with RK4 while div Z and |Z|_inf are
    accumulated by the trapezoid rule, yielding the exact-flow volume
    weight exp(int div) up to O(h^2) quadrature error and the trajectory
    length used in the exp(-K C) lower-bound comparison.
    """
    div = divergence(Z)
    steps = int(round(T / h))
    times = np.arange(steps + 1) * h
    all_weights = []
    lengths = []
    for x0 in cloud:
        traj = integrate_field(Z, x0, T, h)
        div_vals = np.array([div.eval_float(s.tolist()) for s in traj.states])
        speed = np.array([max(abs(c.eval_float(s.tolist())) for c in Z.components)
                          for s in traj.states])
        integral = np.concatenate([[0.0], np.cumsum((div_vals[1:] + div_vals[:-1]) * 0.5 * h)])
        length = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) * 0.5 * h)])
        all_weights.append(np.exp(integral))
        lengths.append(length[-1])
    weights = np.array(all_weights)
    return VolumeReport(times, weights, np.array(lengths), np.min(weights, axis=0))
