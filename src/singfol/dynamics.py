"""Numeric integration of base vector fields with an exact kernel check,
plus divergence-ratio scans and Monte-Carlo volume-distortion diagnostics.

Integration is classical fixed-step RK4: deterministic, reproducible runs
beat adaptive efficiency at the scales used here.  A certified trajectory
of a corank-1 kernel generator Z_I is integrated only once its generator is
proven, exactly and once, to be a Goh kernel section everywhere: every
component of Ht . u, with u the frame coefficients of Z_I (the reduced
Pfaffian cofactors), is the zero polynomial (:func:`abnormal.kernel_residual`).
Its costates are p(t) = omega(x(t)) = (-A_1, ..., -A_{n-1}, 1), the frame's
annihilating form (``Frame.omega``), whose identity omega . X^i = 0
:func:`abnormal.goh_matrix` has checked exactly; they are evaluated when
first read.  No float residual is measured per state: both identities are
exact, so a float value of them would measure rounding only.

Evaluation.  Each call compiles its polynomials once into their float form
(``Polynomial._float_terms``: float coefficients and nonzero exponents,
terms in the printing order), which ``eval_float`` runs as a scalar loop.
Every trajectory runs one RK4 loop, which :func:`_compiled_flow` compiles
once per call from the float forms of the field into straight-line Python:
the state stays in local floats and each operation is the one numpy would
do on (n,) arrays, in the same order, so the states equal an RK4 on arrays
over ``eval_float`` bit for bit.  ``integrate_field`` runs the loop once,
``volume_distortion`` once per cloud point, in cloud order; on a few floats
per point a numpy call costs more than it saves, even batched over a cloud.
Stored states are evaluated by one evaluator, :func:`_eval_states`, which
runs every form a caller needs over every state in one call: the costates
of a trajectory, and div Z and the components of Z over a cloud.  It does
the same products and sums as numpy elementwise operations, term by term in
the same order, over blocks of at most ``EVAL_BLOCK_ROWS`` states, with each
power taken per element by Python's float ``**`` (libm ``pow``), because
numpy's ``**`` rounds differently in a few percent of values.  Every array
therefore equals the per-point evaluation bit for bit, and printed floats do
not depend on how many points were evaluated together.

numpy is imported only by :func:`_eval_states`, :func:`volume_distortion`
and the array views of :class:`Trajectory`.  A trajectory keeps the flat
``array('d')`` the RK4 loop returns, and the divergence scan evaluates one
point at a time, so a caller that prints states or a scan never loads it.

All vector norms in this module are sup norms; the scan's ratio estimate
|div Z| / |Z|_inf is then bounded by the sum of the certificate
coefficients |c_j| evaluated pointwise, which the tests exploit.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Iterator, Sequence

from singfol.abnormal import (AbnormalGenerator, CertificateError, GohMatrix, goh_matrix,
                              kernel_residual)
from singfol.exactpoly import Polynomial, SingfolError, _eval_float_form, _Record
from singfol.vectorfield import Frame, VectorField, divergence

if TYPE_CHECKING:
    import numpy as np

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


# _eval_states evaluates stored states in blocks of at most this many rows,
# so its power columns do not grow with the number of states
EVAL_BLOCK_ROWS = 4096


class BlowUpError(SingfolError, RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, last_valid_time: float):
        super().__init__(f"trajectory blew up after t = {last_valid_time}")
        self.last_valid_time = last_valid_time


class Trajectory(_Record):
    """A fixed-step trajectory: the states of the compiled RK4 loop as one
    flat ``array('d')``, n coordinates per state, state i at time i * h.

    ``omega_forms``, the float forms of the frame's annihilating form, is
    set only on trajectories from :func:`abnormal_trajectory`, whose
    generator passed the exact kernel check; ``certified`` says so.  The
    numpy views ``states``, ``times`` and ``costates`` are built on first
    read, so a caller that reads none of them never imports numpy.
    The one mutable record: it compares by value but does not hash.
    """

    _fields = ("flat", "n", "h", "omega_forms")
    _unshown = ("flat", "omega_forms")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, flat: array, n: int, h: float, omega_forms: list | None = None):
        self.__dict__.update(flat=flat, n=n, h=h, omega_forms=omega_forms)

    @property
    def certified(self) -> bool:
        return self.omega_forms is not None

    @cached_property
    def states(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.flat).reshape(-1, self.n)

    @cached_property
    def times(self) -> np.ndarray:
        import numpy as np

        return np.arange(len(self.flat) // self.n) * self.h

    @cached_property
    def costates(self) -> np.ndarray | None:
        """p(t) = omega(x(t)) on every state, by one :func:`_eval_states`
        call, or None on a trajectory that is not certified.  A power that
        overflows raises ``OverflowError`` here, in the reader."""
        if self.omega_forms is None:
            return None
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            return _eval_states(self.omega_forms, self.states)

    def csv_lines(self, seed: int | None = None) -> Iterator[str]:
        """Rows "t, x1..xn, residual_b, residual_c" under a header comment,
        yielded one at a time, so a reader that prints them holds no more
        than the flat states.

        Row i's time is ``i * h``, the same double as element i of
        ``times``.  The two residual columns hold 0.0 on every row: the
        exact value of Ht . u and of omega . X^i, both proven to be zero
        polynomials before a certified trajectory takes its first step.
        """
        n, h = self.n, self.h
        T = (len(self.flat) // n - 1) * h
        yield f"# seed={seed if seed is not None else 'none'}, h={h!r}, T={T!r}"
        yield "t," + ",".join(f"x{k + 1}" for k in range(n)) + ",residual_b,residual_c"
        for i, state in enumerate(zip(*[map(repr, self.flat)] * n)):
            yield f"{i * h!r},{','.join(state)},0.0,0.0"

    def to_csv(self, seed: int | None = None) -> str:
        """The lines of :meth:`csv_lines`, each ended by a newline."""
        return "\n".join(self.csv_lines(seed)) + "\n"


def _field_forms(V: VectorField) -> list:
    """Compiled float forms of V's components.

    A coefficient beyond the double range cannot be a float: every
    component then compiles to the constant inf, so the RHS is inf at every
    state and the first step blows up, as an overflowing power makes it at
    one state.
    """
    try:
        return [c._float_terms() for c in V.components]
    except OverflowError:
        return [[(math.inf, ())]] * len(V.components)


def _compiled_flow(forms):
    """The RHS of a field and an RK4 loop over it, as straight-line code.

    ``forms`` are the float forms of the n components.  Returns ``(rhs,
    run)``, both from one source compiled once.  ``rhs(x0, ..., x{n-1})``
    is the RHS on one point, as a tuple of floats.
    Component k is one statement per term, ``s_k += c[i] * x_pos ** e
    * ...``, from ``s_k = 0.0``: the factors left to right and the terms in
    the form's order, so every value is bit for bit ``_eval_float_form``.  A
    factor with e = 1 is read as ``x_pos``: ``pow(x, 1)`` is exactly x, as
    in :func:`_eval_states`.  The coefficients come in as the tuple ``c``, so
    the source holds only ints; one statement per term keeps its syntax tree
    shallow however many terms a component has.  A power that overflows
    makes the whole RHS inf.

    ``run(x, steps, hh, h, h6)`` takes ``steps`` RK4 steps from the tuple x
    with hh = 0.5 * h and h6 = h / 6.0, and returns the steps + 1 states as
    one flat ``array('d')``, state after state, 8 bytes per coordinate.  The
    state lives in the locals ``x0..x{n-1}`` and each stage is one ``rhs``
    call.  Each operation is the one numpy would do on the (n,) arrays, in
    the same order: ``xk + hh * ak`` for a stage (``xk + h * dk`` for the
    last), ``xk + h6 * (((ak + 2.0 * bk) + 2.0 * dk) + ek)`` for a step.  A
    state with a non-finite coordinate, which is exactly one where some ``xk
    - xk`` is not 0.0, raises BlowUpError with the last valid time.
    """
    n = len(forms)
    coeffs = []
    body = []
    for k, form in enumerate(forms):
        body.append(f"        s{k} = 0.0")
        for coeff, factors in form:
            powers = "".join(f" * x{pos}" if e == 1 else f" * x{pos} ** {e}"
                             for pos, e in factors)
            body.append(f"        s{k} += c[{len(coeffs)}]{powers}")
            coeffs.append(coeff)

    def names(fmt):
        return ", ".join(fmt.format(k) for k in range(n))

    def row(fmt):
        return "(" + names(fmt) + ",)"

    source = "\n".join([
        f"def rhs({names('x{0}')}):",
        "    try:",
        *body,
        "    except OverflowError:",
        "        return infs",
        f"    return {row('s{0}')}",
        "",
        "def run(x, steps, hh, h, h6):",
        f"    {row('x{0}')} = x",
        "    states = array('d', x)",
        "    extend = states.extend",
        "    for i in range(steps):",
        f"        {row('a{0}')} = rhs({names('x{0}')})",
        f"        {row('b{0}')} = rhs({names('x{0} + hh * a{0}')})",
        f"        {row('d{0}')} = rhs({names('x{0} + hh * b{0}')})",
        f"        {row('e{0}')} = rhs({names('x{0} + h * d{0}')})",
        *(f"        x{k} = x{k} + h6 * (((a{k} + 2.0 * b{k}) + 2.0 * d{k}) + e{k})"
          for k in range(n)),
        f"        if {' + '.join(f'(x{k} - x{k})' for k in range(n))} != 0.0:",
        "            raise BlowUpError(i * h)",
        f"        extend({row('x{0}')})",
        "    return states",
    ])
    scope = {"c": tuple(coeffs), "infs": (math.inf,) * n, "BlowUpError": BlowUpError,
             "array": array}
    exec(compile(source, "<singfol.dynamics flow>", "exec"), scope)
    return scope["rhs"], scope["run"]


def _eval_states(forms, S: np.ndarray) -> np.ndarray:
    """Compiled float forms on every row of S: ``out[r, j]`` is form j on
    row r, bit for bit ``eval_float``.

    Products and sums are numpy elementwise, term by term in the form's
    order, exactly as the scalar loop.  Each power ``x_pos ** e``, e >= 2,
    is taken element by element with Python's float ``**`` (libm ``pow``):
    numpy's ``**`` rounds differently in a few percent of values for e >= 3
    and in about 0.1 % for e = 2.  For e = 1 the column itself is used:
    ``pow(x, 1)`` is exactly x, since libm's ``pow`` errs by less than one
    unit in the last place and x is representable.  S is evaluated in blocks
    of at most ``EVAL_BLOCK_ROWS`` rows, each with its own cache of power
    columns shared across the forms, so memory does not grow with len(S).
    An overflowing power raises ``OverflowError``, as in ``eval_float``.
    """
    import numpy as np

    out = np.empty((len(S), len(forms)))
    for start in range(0, len(S), EVAL_BLOCK_ROWS):
        X = S[start:start + EVAL_BLOCK_ROWS]
        powers = {}
        for j, form in enumerate(forms):
            total = np.zeros(len(X))
            for coeff, factors in form:
                term = np.full(len(X), coeff)
                for pos, e in factors:
                    column = powers.get((pos, e))
                    if column is None:
                        column = X[:, pos]
                        if e != 1:
                            column = np.array([v ** e for v in column.tolist()], dtype=float)
                        powers[pos, e] = column
                    term *= column
                total += term
            out[start:start + len(X), j] = total
    return out


def _steps(V: VectorField, T: float, h: float) -> int:
    if V.space.fiber:
        raise ValueError("integration is over base fields")
    if h <= 0 or T < 0:
        raise ValueError("need h > 0 and T >= 0")
    return int(round(T / h))


def integrate_field(V: VectorField, x0: Sequence[float], T: float, h: float) -> Trajectory:
    """Classical RK4 with a fixed step; raises BlowUpError on non-finite states.

    One run of the loop compiled by :func:`_compiled_flow`: its states are
    bit for bit those of an RK4 on (n,) arrays over ``eval_float``.
    """
    steps = _steps(V, T, h)
    x = tuple(float(v) for v in x0)
    if len(x) != V.n:
        raise ValueError(f"start point of length {len(x)}, expected {V.n}")
    _, run = _compiled_flow(_field_forms(V))
    return Trajectory(run(x, steps, 0.5 * h, h, h / 6.0), V.n, h)


def abnormal_trajectory(F: Frame, g: AbnormalGenerator, x0: Sequence[float],
                        T: float, h: float, *, goh: GohMatrix | None = None) -> Trajectory:
    """Integrate the base projection of a generator after checking, exactly,
    that it is a Goh kernel section.

    A nonzero component of :func:`abnormal.kernel_residual` raises
    :class:`abnormal.CertificateError` before any step, naming I, the
    component and its residual.  The costates are the annihilating form
    omega(x), in the gauge p_n = 1 (the annihilator of a corank-1 frame is a
    dilation-invariant graph, so the choice is harmless): the trajectory
    keeps omega's float forms and evaluates them over all states when
    ``costates`` is first read.  ``goh`` reuses a Goh matrix already built
    for F.
    """
    if F.omega is None or g.Z is None:
        raise ValueError("certified integration needs a corank-1 generator with projection")
    if goh is None:
        goh = goh_matrix(F)
    for i, residual in enumerate(kernel_residual(g, goh), start=1):
        if residual:
            raise CertificateError(
                f"Z_{g.I} is not a Goh kernel section: component {i} of Ht.u is nonzero: "
                f"residual {residual}", {"I": list(g.I), "component": i, "residual": str(residual)},
                residual)
    traj = integrate_field(g.Z, x0, T, h)
    return Trajectory(traj.flat, traj.n, h, [w._float_terms() for w in F.omega])


class DivergenceScan(_Record):
    """Empirical estimate of sup |div Z| / |Z|_inf over a box.

    ``div`` is the exact divergence of Z that the scan evaluates.
    ``ratio_sup`` is a max over finitely many samples: an estimate, never a
    certified supremum.  Samples with |Z|_inf below the cutoff are skipped;
    the ones within a factor 2 of the cutoff are reported as offenders
    (they sit near the singular set where the ratio degenerates to 0/0).
    A Z component, or div Z at a sample not skipped, that is not a finite
    double (finite terms can sum to inf) raises ``OverflowError``.
    """

    _fields = ("box", "samples", "seed", "cutoff", "ratio_sup", "argmax", "offenders", "skipped",
               "div")

    def __init__(self, box: tuple[float, float], samples: int, seed: int, cutoff: float,
                 ratio_sup: float, argmax: tuple[float, ...] | None,
                 offenders: tuple[tuple[float, ...], ...], skipped: int, div: Polynomial):
        self.__dict__.update(box=box, samples=samples, seed=seed, cutoff=cutoff,
                             ratio_sup=ratio_sup, argmax=argmax, offenders=offenders,
                             skipped=skipped, div=div)


def divergence_ratio_scan(Z: VectorField, box: tuple[float, float], samples: int,
                          seed: int, cutoff: float) -> DivergenceScan:
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    rng = random.Random(seed)
    div = divergence(Z)
    div_form = div._float_terms()
    zforms = [c._float_terms() for c in Z.components]
    lo, hi = float(box[0]), float(box[1])
    best = 0.0
    argmax = None
    offenders = []
    skipped = 0
    for _ in range(samples):
        x = [rng.uniform(lo, hi) for _ in range(Z.n)]
        z = [_eval_float_form(form, x) for form in zforms]
        if not all(map(math.isfinite, z)):
            raise OverflowError(f"a component of Z is not finite at the sample {x}")
        znorm = max(map(abs, z))
        if znorm < cutoff:
            skipped += 1
            continue
        if znorm < 2.0 * cutoff and len(offenders) < 16:
            offenders.append(tuple(x))
        dz = _eval_float_form(div_form, x)
        if not math.isfinite(dz):
            raise OverflowError(f"div Z is not finite at the sample {x}")
        ratio = abs(dz) / znorm
        if ratio > best:
            best = ratio
            argmax = tuple(x)
    return DivergenceScan((lo, hi), samples, seed, cutoff, best, argmax,
                          tuple(offenders), skipped, div)


class VolumeReport(_Record):
    """Per-time volume weights exp(integral of div Z) along a trajectory cloud.

    ``weights[i, t]`` is the Liouville volume factor of cloud point i at
    grid time t (trapezoid quadrature); ``lengths[i]`` is the accumulated
    sup-norm length of trajectory i at the final time.
    """

    _fields = ("times", "weights", "lengths", "min_weights")

    def __init__(self, times: np.ndarray, weights: np.ndarray, lengths: np.ndarray,
                 min_weights: np.ndarray):
        self.__dict__.update(times=times, weights=weights, lengths=lengths,
                             min_weights=min_weights)

    def min_final_weight(self) -> float:
        return float(self.min_weights[-1])


def sample_cloud(box: tuple[float, float], count: int, n: int, seed: int) -> list[list[float]]:
    rng = random.Random(seed)
    lo, hi = float(box[0]), float(box[1])
    return [[rng.uniform(lo, hi) for _ in range(n)] for _ in range(count)]


def volume_distortion(Z: VectorField, cloud: Sequence[Sequence[float]],
                      T: float, h: float) -> VolumeReport:
    """Monte-Carlo volume factors along the flow of Z.

    Each point is integrated by one run of the loop compiled by
    :func:`_compiled_flow`, in cloud order, so the first point that blows up
    raises with its own last valid time.  Then div Z and |Z|_inf are
    evaluated over the stored states by one :func:`_eval_states` call, and
    accumulated by the trapezoid rule, yielding the exact-flow volume weight exp(int div) up
    to O(h^2) quadrature error and the trajectory length used in the
    exp(-K C) lower-bound comparison.  Every value is bit for bit the one
    of integrating and evaluating the points one at a time.
    """
    import numpy as np

    steps = _steps(Z, T, h)
    X = np.array([[float(v) for v in x0] for x0 in cloud], dtype=float).reshape(len(cloud), Z.n)
    forms = _field_forms(Z)
    _, run = _compiled_flow(forms)
    states = np.empty((steps + 1,) + X.shape)
    for i, x in enumerate(X.tolist()):
        flat = run(tuple(x), steps, 0.5 * h, h, h / 6.0)
        states[:, i] = np.frombuffer(flat).reshape(steps + 1, Z.n)
    div = divergence(Z)._float_terms()
    with np.errstate(over="ignore", invalid="ignore"):
        # values[k, i, t]: form k at cloud point i and grid time t
        values = _eval_states([div] + forms, states.reshape(-1, Z.n)).reshape(
            states.shape[:2] + (Z.n + 1,)).T
        div_vals = values[0]
        # Python's max over the components, as on one state: keep the
        # first unless a later one is greater
        speed = reduce(lambda a, b: np.where(b > a, b, a), np.abs(values[1:]))
        start = np.zeros((len(cloud), 1))
        integral = np.hstack([start, np.cumsum((div_vals[:, 1:] + div_vals[:, :-1]) * 0.5 * h, axis=1)])
        length = np.hstack([start, np.cumsum((speed[:, 1:] + speed[:, :-1]) * 0.5 * h, axis=1)])
        weights = np.exp(integral)
    return VolumeReport(np.arange(steps + 1) * h, weights, length[:, -1], np.min(weights, axis=0))
