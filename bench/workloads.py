"""The four seeded workloads, their output checks and their counts.

Every input comes from the ``seed`` passed to a workload's constructor.
The shape of the inputs (which monomials occur, which fields a frame has,
the magnitudes of the coefficients) decides how much work a pass does, so it
is fixed here and the seed picks the signs of the coefficients, the check
points and the demos' start points and CLI seeds.  Every seed then asks for
the same arithmetic, and runs with different seeds can be compared.

Each workload runs one *pass* over its operations with :meth:`run`, calling
singfol's public functions through :meth:`Ledger.call`, which counts the call
as attempted, wraps it in a span and counts an exception as a failure.  The
pass returns a record; :meth:`check` tests the record against exact
identities (see ``oracles``), :meth:`digest_chunks` gives the symbolic
output that must match the stored digests, and :meth:`counts` gives the
per-layer counts.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

import singfol
from singfol import abnormal, cli, dynamics
from singfol.demos import DEMOS
from singfol.exactpoly import Polynomial, Space
from singfol.normalform import JetFrame, normalize_frame
from singfol.pfaffian import skew_rank

import oracles
from speed import Speedometer


class Skip(Exception):
    """An operation failed; the rest of its frame's pipeline is skipped."""


class Ledger:
    """Attempted and failed operations over a whole run, and the host's
    speed around each operation (``speed``, renewed for every pass)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.speed = Speedometer()
        self.last_seconds = 0.0
        self.last_scaled = 0.0

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 40:
            self.failures.append(message)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.fail(message)

    def call(self, tracer, span: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span.  Its wall time is left in
        ``last_seconds`` and, scaled to nominal host speed, in ``last_scaled``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span(span):
                return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{span}: {type(exc).__name__}: {exc}")
            raise Skip(span) from exc
        finally:
            self.last_seconds = time.perf_counter() - t0
            self.last_scaled = self.last_seconds / self.speed.after(self.last_seconds)

    def timed(self, tracer, span: str, latencies: list, fn, *args, **kwargs):
        """:meth:`call`, also appending its scaled wall time to ``latencies``."""
        out = self.call(tracer, span, fn, *args, **kwargs)
        latencies.append(self.last_scaled)
        return out


@dataclass
class Pass:
    """What one pass did.  ``units`` is the workload's unit of work and
    ``unit_seconds`` the time it is rated against (the pass wall time when
    None); ``latencies`` are the wall times of its unit operation.  Times
    are scaled to nominal host speed (see speed.py)."""

    units: int = 0
    unit_seconds: float | None = None
    latencies: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _mono_text(coeff: Fraction, exps) -> str:
    factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
    sign = "-" if coeff < 0 else ""
    return sign + "*".join([str(abs(coeff))] + factors)


def _poly_text(terms) -> str:
    return " + ".join(_mono_text(c, e) for e, c in terms) if terms else "0"


def _coefficient(magnitudes: random.Random, signs: random.Random) -> Fraction:
    """Magnitude from the fixed shape, sign from the seed.  Magnitudes from
    a wide set keep accidental cancellations, which change the work, rare."""
    return Fraction(magnitudes.randint(1, 9), magnitudes.randint(1, 5)) * signs.choice((-1, 1))


def _rational_point(rng: random.Random, count: int, den: int = 8) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-den, den), den) for _ in range(count))


def _certify_rank(m: int, generic_rank: int) -> int:
    """Largest even rank below m that the generic rank allows (generators
    need I of size r+1 <= m)."""
    top = m - 1 if m % 2 else m - 2
    return min(generic_rank, max(top, 0))


def _frame_pipeline(led, tr, spec):
    """build_frame -> goh_matrix -> generic rank of Ht (of H without a normal form)."""
    F = led.call(tr, "exactpoly.parse", cli.build_frame, spec)
    goh = led.call(tr, "abnormal.goh", abnormal.goh_matrix, F)
    matrix = goh.reduced if goh.reduced is not None else goh.H
    r = led.call(tr, "pfaffian.rank_generic", skew_rank, matrix)
    return F, goh, r


def _certificates(led, tr, F, goh, gens, latencies):
    return [led.timed(tr, "abnormal.certificate", latencies,
                      abnormal.divergence_certificate, g, F, goh) for g in gens]


def _check_generators(led, label, goh, gens, rc, points):
    """Cofactor identities of every generator at exact points (see oracles)."""
    led.expect(len(gens) == math.comb(goh.m, rc + 1),
               f"{label}: {len(gens)} generators, expected C({goh.m},{rc + 1})")
    for x in points:
        values = goh.reduced.evaluate(list(x))
        rank_x = oracles.rank(values)
        for g in gens:
            u = {j: c.eval_exact(x) for j, c in zip(g.I, g.reduced_coefficients)}
            for problem in oracles.cofactor_residuals(values, rank_x, g.I, u):
                led.fail(f"{label}: {problem}")


def _check_certificates(led, label, gens, certs):
    for g, cert in zip(gens, certs):
        led.expect(cert.ok() and cert.subject == g.I, f"{label}: certificate of I={g.I} not ok")


def _generator_chunks(gens, certs):
    for g in gens:
        yield f"I={g.I} p={g.p_degree}"
        yield from (str(c) for c in g.Y.components)
        if g.Z is not None:
            yield from (str(c) for c in g.Z.components)
    for cert in certs:
        yield f"cert {cert.subject} {cert.ok()} {cert.base_constant}"
        if cert.base_coefficients is not None:
            yield from (str(c) for c in cert.base_coefficients)


def _generator_counts(frames) -> dict:
    """Generators, certificates and the triple brackets their certificates
    expand: every ordered triple of distinct indices of each I, and the
    distinct brackets {h^j, {h^k, h^l}} per frame (k < l; the bracket is
    antisymmetric in k, l), whose ratio is the reuse a bracket cache sees."""
    out = {"abnormal.generators": 0, "abnormal.certificates": 0,
           "abnormal.triple_brackets": 0, "abnormal.distinct_triples": 0,
           "vectorfield.goh_entries": 0}
    for fr in frames:
        out["vectorfield.goh_entries"] += fr["goh"].m * (fr["goh"].m - 1) // 2
        gens = fr.get("gens", [])
        out["abnormal.generators"] += len(gens)
        out["abnormal.certificates"] += len(fr.get("certs", []))
        distinct = set()
        for g in gens:
            s = len(g.I)
            out["abnormal.triple_brackets"] += s * (s - 1) * (s - 2)
            for j in g.I:
                distinct.update((j, k, l) for k, l in combinations(g.I, 2) if j not in (k, l))
        out["abnormal.distinct_triples"] += len(distinct)
    return out


def _minor_counts(minors) -> dict:
    minors = list(minors)
    zero = sum(q.is_zero() for q in minors)
    return {"pfaffian.minors": len(minors),
            "pfaffian.zero_minor_ratio": zero / len(minors) if minors else 0.0}


# ---------------------------------------------------------------------------
# certify-random
# ---------------------------------------------------------------------------


class CertifyRandom:
    """Random sparse corank-1 frames, n in {9, 11, 13}: at most two terms per
    coefficient, degree at most 2, small rational coefficients; goh ->
    skew_rank -> singular_set_equations -> generators -> certificates.

    Why: many generators over small polynomials.  The time goes to the
    Pfaffian recursion and the repeated Poisson brackets of the Jacobi
    expansion, so certificate sharing and Pfaffian caches show here, while
    large-polynomial arithmetic barely matters.

    The monomial supports and coefficient magnitudes are drawn from
    SHAPE_SEEDS, one per n; the seed draws the signs.  These supports give
    generic ranks 4, 6 and 10, so 56, 120 and 12 generators, and the certify
    rank equals the generic rank: every generator is a kernel vector at a
    generic point.
    """

    name = "certify-random"
    # what the generic end-to-end metrics mean here
    names = {"throughput_per_s": "certificates_per_s", "op_p50_ms": "certificate_p50_ms"}
    SHAPE_SEEDS = {9: 2, 11: 8, 13: 2}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.specs = []
        self.points = []
        for n, shape_seed in self.SHAPE_SEEDS.items():
            shape = random.Random(shape_seed * 100 + n)
            magnitudes = random.Random(shape_seed * 100 + n + 50)
            coeffs = []
            for _ in range(n - 1):
                terms = {}
                for _ in range(shape.randint(1, 2)):
                    exps = [0] * n
                    for _ in range(shape.randint(0, 2)):
                        exps[shape.randrange(n)] += 1
                    terms[tuple(exps)] = _coefficient(magnitudes, rng)
                coeffs.append(_poly_text(sorted(terms.items())))
            self.specs.append({"dimension": n, "rank": n - 1, "normal_form": coeffs,
                               "name": f"random-{n}"})
            self.points.append([_rational_point(rng, n) for _ in range(2)])

    def run(self, tr, led) -> Pass:
        out = Pass()
        for spec in self.specs:
            try:
                F, goh, r = _frame_pipeline(led, tr, spec)
                eqs = led.call(tr, "abnormal.singular_set", abnormal.singular_set_equations, F, r, goh)
                rc = _certify_rank(F.m, r)
                gens = led.call(tr, "abnormal.generators", abnormal.abnormal_generators, F, rc, goh)
                certs = _certificates(led, tr, F, goh, gens, out.latencies)
            except Skip:
                continue
            out.units += len(certs)
            out.frames.append({"F": F, "goh": goh, "r": r, "eqs": eqs, "rc": rc,
                               "gens": gens, "certs": certs})
        return out

    def check(self, rec: Pass, led: Ledger):
        led.expect(len(rec.frames) == len(self.specs), "certify-random: a frame failed")
        for fr, points in zip(rec.frames, self.points):
            label, goh, r = fr["F"].name, fr["goh"], fr["r"]
            led.expect(len(fr["eqs"]) == math.comb(goh.m, r), f"{label}: minor count")
            ranks = []
            for x in points:
                values = goh.reduced.evaluate(list(x))
                ranks.append(oracles.rank(values))
                # Pf^2 = det on the first minors
                for I, q in list(zip(combinations(range(1, goh.m + 1), r), fr["eqs"]))[:8]:
                    led.expect(q.eval_exact(x) ** 2 == oracles.det(oracles.submatrix(values, I)),
                               f"{label}: Pf^2 != det for minor {I}")
            led.expect(max(ranks) == r, f"{label}: generic rank {r}, elimination ranks {ranks}")
            _check_generators(led, label, goh, fr["gens"], fr["rc"], points)
            _check_certificates(led, label, fr["gens"], fr["certs"])

    def digest_chunks(self, rec: Pass):
        for fr in rec.frames:
            yield f"{fr['F'].name} r={fr['r']} rc={fr['rc']}"
            yield from (str(q) for q in fr["eqs"])
            yield from _generator_chunks(fr["gens"], fr["certs"])

    def counts(self, rec: Pass) -> dict:
        out = _generator_counts(rec.frames)
        out.update(_minor_counts(q for fr in rec.frames for q in fr["eqs"]))
        return out


# ---------------------------------------------------------------------------
# dense-kernel
# ---------------------------------------------------------------------------


class DenseKernel:
    """Frames [P, 0] (n = 3) and [x2, x4, P] (n = 4) with
    P = (a1 x1 + a2 x2 + a3 x3 + a0)^K; per frame generators, certificates
    and the jet normal form at ORDER.  Direct Polynomial calls on P: the
    power itself, a product and the substitution of a linear shear
    x1 -> x1 + b x2.

    Why: one or two generators but thousands of terms per component, so the
    time goes to exactpoly's dictionary arithmetic and to substitute inside
    project_corank1, and certificate caching has nothing to share.  The
    magnitudes |a0|..|a3| and |b| are fixed; the seed picks their signs, so
    the term counts do not depend on it.
    """

    name = "dense-kernel"
    names = {"throughput_per_s": "output_terms_per_s", "op_p50_ms": "frame_p50_ms"}
    K = 16
    ORDER = 5
    A_MAGNITUDES = (1, 2, 1, 1)  # |a0|, |a1|, |a2|, |a3|
    SHEAR_MAGNITUDE = 1

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.a = [a * rng.choice((-1, 1)) for a in self.A_MAGNITUDES]
        self.shear = self.SHEAR_MAGNITUDE * rng.choice((-1, 1))
        linear = [(tuple(int(i == k) for i in range(3)), Fraction(self.a[k + 1])) for k in range(3)]
        linear.append(((0, 0, 0), Fraction(self.a[0])))
        text = f"({_poly_text(linear)})^{self.K}"
        self.specs = [
            {"dimension": 3, "rank": 2, "normal_form": [text, "0"], "name": "dense-3"},
            {"dimension": 4, "rank": 3, "normal_form": ["x2", "x4", text], "name": "dense-4"},
        ]
        space = Space(3)
        self.L = Polynomial(space, dict(linear))
        self.L3 = self.L ** 3
        x1, x2 = Polynomial.variable(space, 0), Polynomial.variable(space, 1)
        self.subs = {0: x1 + x2 * self.shear}
        self.points = [_rational_point(rng, 4, den=4) for _ in range(2)]

    def run(self, tr, led) -> Pass:
        out = Pass()
        try:
            P = led.call(tr, "exactpoly.pow", operator.pow, self.L, self.K)
            out.extra["Q"] = led.call(tr, "exactpoly.mul", operator.mul, P, self.L3)
            out.extra["S"] = led.call(tr, "exactpoly.substitute", P.substitute, self.subs)
            out.extra["P"] = P
        except Skip:
            pass
        for spec in self.specs:
            scaled0 = led.speed.scaled
            try:
                F, goh, r = _frame_pipeline(led, tr, spec)
                rc = _certify_rank(F.m, r)
                gens = led.call(tr, "abnormal.generators", abnormal.abnormal_generators, F, rc, goh)
                certs = _certificates(led, tr, F, goh, gens, [])
                jet = JetFrame.from_frame(F, self.ORDER)
                N = led.call(tr, "normalform.normalize", normalize_frame, jet)
            except Skip:
                continue
            out.latencies.append(led.speed.scaled - scaled0)
            out.units += sum(len(c.terms) for g in gens
                             for c in g.Y.components + g.Z.components)
            out.frames.append({"F": F, "goh": goh, "r": r, "rc": rc, "gens": gens,
                               "certs": certs, "N": N})
        return out

    def check(self, rec: Pass, led: Ledger):
        led.expect(len(rec.frames) == len(self.specs) and "P" in rec.extra,
                   "dense-kernel: an operation failed")
        if "P" in rec.extra:
            P, Q, S = rec.extra["P"], rec.extra["Q"], rec.extra["S"]
            led.expect(len(P.terms) == math.comb(self.K + 3, 3), "dense-kernel: term count of P")
            for x in self.points:
                x3 = x[:3]
                px = self.L.eval_exact(x3) ** self.K
                led.expect(P.eval_exact(x3) == px, "dense-kernel: P(x) != L(x)^K")
                led.expect(Q.eval_exact(x3) == px * self.L3.eval_exact(x3), "dense-kernel: product")
                moved = (x3[0] + self.shear * x3[1],) + x3[1:]
                led.expect(S.eval_exact(x3) == P.eval_exact(moved), "dense-kernel: substitution")
            for fr in rec.frames:
                parsed = fr["F"].normal_form[0 if fr["F"].n == 3 else 2]
                led.expect(len(parsed.terms) == len(P.terms), "dense-kernel: parsed P")
        for fr in rec.frames:
            label = fr["F"].name
            points = [x[:fr["F"].n] for x in self.points]
            _check_generators(led, label, fr["goh"], fr["gens"], fr["rc"], points)
            _check_certificates(led, label, fr["gens"], fr["certs"])
            self._check_normal_form(led, label, fr["N"])

    def _check_normal_form(self, led, label, N):
        """X^k = d_k + sum_{i>m} A^k_i d_i with A^k_i(0) = 0, within the jet."""
        for k in range(1, N.m + 1):
            for i in range(1, N.n + 1):
                body = N.coefficient(k, i).body
                led.expect(body.total_degree() <= N.order, f"{label}: jet order exceeded")
                if i <= N.m:
                    want = Polynomial.constant(body.space, int(i == k))
                    led.expect(body == want, f"{label}: normal form entry ({k},{i}) = {body}")
                else:
                    led.expect(body.constant_term() == 0, f"{label}: A^{k}_{i}(0) != 0")

    def digest_chunks(self, rec: Pass):
        for key in ("P", "Q", "S"):
            if key in rec.extra:
                yield str(rec.extra[key])
        for fr in rec.frames:
            yield f"{fr['F'].name} r={fr['r']} rc={fr['rc']}"
            yield from _generator_chunks(fr["gens"], fr["certs"])
            yield from (str(js.body) for row in fr["N"].components for js in row)
            yield str(fr["N"].chart)

    def counts(self, rec: Pass) -> dict:
        out = _generator_counts(rec.frames)
        if "P" in rec.extra:
            P = rec.extra["P"]
            rep = self.subs[0]
            out["exactpoly.terms_in"] = (len(self.L.terms) + len(P.terms) + len(self.L3.terms)
                                         + len(P.terms) + len(rep.terms))
            out["exactpoly.terms_out"] = len(P.terms) + len(rec.extra["Q"].terms) + len(rec.extra["S"].terms)
        return out


# ---------------------------------------------------------------------------
# stratify-sample
# ---------------------------------------------------------------------------


class StratifySample:
    """Three frames, each stratified and then classified on a separate batch
    of annihilator points with kernel_dim_at:

    * a wide rank-2 corank-1 frame, n = 13 and m = 12, with A_1 = 0 and
      A_j = c_j (x1 + s x1^2), s = +-2: Ht has rank 2 off x1 = -1/(2s),
      where every entry vanishes, so stratify finds that deeper locus too;
    * the dim6-cubic demo, whose deeper locus x2 + x3 = 0 makes
      _project_onto_locus run;
    * a general `fields` frame (n = 8, m = 6, X^i = d_i + quadratic terms),
      which samples through the annihilator nullspace.

    Why: rank decisions at exact points (subset-enumerating scalar
    Pfaffians) and locus projection, with no generators or certificates.
    It uses pfaffian in another way than certify-random, so a rank change
    that helps one and hurts the other shows.
    """

    name = "stratify-sample"
    # the latency is that of kernel_dim_at on the wide frame, whose cost is
    # set by its 2^12 index subsets; on the other frames it depends on the
    # sizes of the point's fractions, which the seed moves
    names = {"throughput_per_s": "samples_per_s", "op_p50_ms": "wide_kernel_dim_p50_ms"}
    SHAPE_SEED = 5
    # (stratify samples, batch points) per frame.  The sampler seeds are
    # fixed: the cost of an exact rank depends on the sizes of the point's
    # fractions, so every seed samples the same grid points and varies only
    # the frames' signs
    SIZES = ((24, 16), (64, 32), (48, 32))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        s = 2 * rng.choice((-1, 1))
        magnitudes = random.Random(self.SHAPE_SEED + 1)
        wide = ["0"] + [_poly_text([((1,) + (0,) * 12, c), ((2,) + (0,) * 12, c * s)])
                        for c in (_coefficient(magnitudes, rng) for _ in range(11))]
        general = self._general_fields(rng, 8, 6)
        self.specs = [
            {"dimension": 13, "rank": 12, "normal_form": wide, "name": "wide-rank2"},
            DEMOS["dim6-cubic"].to_spec(),
            {"dimension": 8, "rank": 6, "fields": general, "name": "general-8-6"},
        ]
        self.configs = [abnormal.SamplerConfig(seed=k, count=count)
                        for k, (count, _) in enumerate(self.SIZES)]
        self.batch_seeds = [100 + k for k in range(len(self.SIZES))]

    @classmethod
    def _general_fields(cls, rng, n, m):
        shape = random.Random(cls.SHAPE_SEED)
        magnitudes = random.Random(cls.SHAPE_SEED + 2)
        rows = []
        for i in range(m):
            row = []
            for k in range(n):
                terms = {}
                if k == i:
                    terms[(0,) * n] = Fraction(1)
                for _ in range(shape.randint(0, 2)):
                    exps = [0] * n
                    for _ in range(shape.randint(1, 2)):
                        exps[shape.randrange(n)] += 1
                    terms[tuple(exps)] = _coefficient(magnitudes, rng)
                row.append(_poly_text(sorted(terms.items())))
            rows.append(row)
        return rows

    def run(self, tr, led) -> Pass:
        out = Pass()
        for k, (spec, config, bseed) in enumerate(zip(self.specs, self.configs, self.batch_seeds)):
            batch = self.SIZES[k][1]
            latencies = out.latencies if k == 0 else []
            try:
                F, goh, r = _frame_pipeline(led, tr, spec)
                S = led.call(tr, "abnormal.stratify", abnormal.stratify, F, config, goh)
                brng = random.Random(bseed)
                points = [led.call(tr, "abnormal.sample", abnormal.sample_annihilator_point,
                                   F, brng, config) for _ in range(batch)]
                dims = [led.timed(tr, "abnormal.kernel_dim", latencies,
                                  abnormal.kernel_dim_at, F, x, p, goh) for x, p in points]
            except Skip:
                continue
            out.units += config.count + batch
            out.frames.append({"F": F, "goh": goh, "r": r, "S": S, "points": points, "dims": dims})
        return out

    def check(self, rec: Pass, led: Ledger):
        led.expect(len(rec.frames) == len(self.specs), "stratify-sample: a frame failed")
        for fr, config in zip(rec.frames, self.configs):
            F, goh, S = fr["F"], fr["goh"], fr["S"]
            label = F.name
            led.expect(list(S.dims) == sorted(set(S.dims)), f"{label}: dims not increasing")
            led.expect(min(S.dims) == F.m - fr["r"], f"{label}: generic kernel dim {min(S.dims)}"
                       f" but m - generic rank = {F.m - fr['r']}")
            led.expect(S.strata[0].sample_count <= config.count and S.strata[0].has_interior,
                       f"{label}: top level")
            led.expect(all(st.dim % 2 == F.m % 2 for st in S.strata), f"{label}: parity")
            witnesses = [(w.x, w.p, w.kernel_dim) for st in S.strata for w in st.witnesses]
            batch = [(x, p, d) for (x, p), d in zip(fr["points"], fr["dims"])]
            for x, p, d in witnesses + batch:
                on_bundle = all(sum((pk * vk for pk, vk in zip(p, X.evaluate(list(x)))), Fraction(0)) == 0
                                for X in F.fields) and any(p)
                led.expect(on_bundle, f"{label}: point off the annihilator bundle")
                values = goh.H.evaluate(list(x) + list(p))
                led.expect(d == F.m - oracles.rank(values),
                           f"{label}: kernel dim {d} != m - elimination rank at {x}")

    def digest_chunks(self, rec: Pass):
        for fr in rec.frames:
            S = fr["S"]
            yield f"{fr['F'].name} r={fr['r']} dims={S.dims} unconfirmed={S.unconfirmed!r}"
            for st in S.strata:
                yield f"{st.dim} {st.rank} {st.has_interior} {st.sample_count} {st.parity_ok}"
                yield from (f"{w.x} {w.p} {w.kernel_dim} {w.exact}" for w in st.witnesses)
                yield from (str(q) for q in st.vanishing_locus)
            yield f"{fr['points']} {fr['dims']}"

    def counts(self, rec: Pass) -> dict:
        out = {"abnormal.samples": 0, "abnormal.levels": 0, "abnormal.deep_witnesses": 0,
               "abnormal.unconfirmed": 0,
               "vectorfield.goh_entries": sum(fr["goh"].m * (fr["goh"].m - 1) // 2 for fr in rec.frames)}
        for fr, config in zip(rec.frames, self.configs):
            S = fr["S"]
            out["abnormal.samples"] += config.count + len(fr["points"])
            out["abnormal.levels"] += len(S.strata)
            out["abnormal.deep_witnesses"] += sum(len(st.witnesses) for st in S.strata[1:])
            out["abnormal.unconfirmed"] += len(S.unconfirmed)
        out.update(_minor_counts(q for fr in rec.frames for st in fr["S"].strata
                                 for q in st.vanishing_locus))
        return out


# ---------------------------------------------------------------------------
# demos-numeric
# ---------------------------------------------------------------------------


def run_child(argv, stdin_text: str, env: dict, timeout: float = 120.0):
    """Run a child to completion; return (exit code, stdout, stderr, max RSS in KiB).

    The child is reaped with wait4 so its own peak RSS is known.  A child
    still running after ``timeout`` seconds is killed.
    """
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    killer = threading.Timer(timeout, proc.kill)
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    reader.start()
    try:
        proc.stdin.write(stdin_text)
        proc.stdin.close()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0] if err else "", usage.ru_maxrss


def _main_in_process(argv, stdin_text: str) -> tuple[int, str]:
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


class DemosNumeric:
    """Every built-in demo through the CLI as users run it: certify --json,
    stratify, integrate (1000 steps) and scan-div, each a fresh
    `python -m singfol.cli` child fed the demo document, one at a time, and
    the same argv through singfol.cli.main in-process.  Then in-process:
    integrate_field and abnormal_trajectory of the first generator, a
    divergence-ratio scan and volume_distortion of a seeded sample_cloud.

    Why: the exact layers do almost nothing here.  The time goes to
    interpreter and import start-up and to the numeric layer's per-component
    eval_float loops; this is the only workload where dynamics and cli
    dominate.  Its unit is the in-process RK4 state-step.
    """

    name = "demos-numeric"
    names = {"throughput_per_s": "rk4_steps_per_s", "op_p50_ms": "cli_p50_ms"}
    T, H = 1.0, 1e-3
    CLOUD, CLOUD_T = 16, 0.25
    SCAN_SAMPLES = 256
    BOX = (-0.5, 0.5)
    # martinet is left out of the trajectories: with m = 2 its generators
    # live at rank 0 and span the kernel only on the singular surface x1 = 0,
    # so every flow off it fails certification, as the CLI reports (exit 2)
    FLOWS = ("dim4", "dim4-engel", "dim5", "dim6-cubic")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # the children import the same singfol sources as this process
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(singfol.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.docs = {}
        self.starts = {}
        self.argvs = {}
        for name in DEMOS:
            code, doc = _main_in_process(["demo", name], "")
            if code != 0:
                raise RuntimeError(f"singfol demo {name} exited {code}")
            self.docs[name] = doc
            n = DEMOS[name].dimension
            self.starts[name] = [round(rng.uniform(-0.2, 0.2), 3) for _ in range(n)]
            start = ",".join(repr(v) for v in self.starts[name])
            self.argvs[name] = [
                ["certify", "--json"],
                ["stratify", "--seed", str(rng.randint(0, 9999)), "--samples", "64"],
                ["scan-div", "--seed", str(rng.randint(0, 9999)), "--samples", str(self.SCAN_SAMPLES)],
            ]
            if name in self.FLOWS:
                self.argvs[name].append(
                    ["integrate", "--from", start, "--T", str(self.T), "--h", str(self.H)])
        self.scan_seed = rng.randint(0, 9999)
        self.cloud_seed = rng.randint(0, 9999)

    def run(self, tr, led) -> Pass:
        out = Pass(unit_seconds=0.0)
        cli_runs, main_runs, main_latencies, child_rss = [], [], [], []
        for name, doc in self.docs.items():
            for argv in self.argvs[name]:
                try:
                    res = led.timed(tr, "cli.child", out.latencies, run_child,
                                    [sys.executable, "-m", "singfol.cli"] + argv, doc, self.env)
                except Skip:
                    continue
                cli_runs.append((name, argv, res))
                child_rss.append(res[3])
        for name, doc in self.docs.items():
            for argv in self.argvs[name]:
                try:
                    res = led.timed(tr, "cli.main", main_latencies, _main_in_process, argv, doc)
                except Skip:
                    continue
                main_runs.append((name, argv, res))

        def rk4(span, fn, *args):
            result = led.call(tr, span, fn, *args)
            out.unit_seconds += led.last_scaled
            return result

        for name in self.FLOWS:
            try:
                F, goh, r = _frame_pipeline(led, tr, json.loads(self.docs[name]))
                gens = led.call(tr, "abnormal.generators", abnormal.abnormal_generators,
                                F, _certify_rank(F.m, r), goh)
                g = gens[0]
                cert = led.call(tr, "abnormal.certificate", abnormal.divergence_certificate, g, F, goh)
                x0 = self.starts[name]
                cloud = dynamics.sample_cloud(self.BOX, self.CLOUD, F.n, self.cloud_seed)
                plain = rk4("dynamics.integrate", dynamics.integrate_field, g.Z, x0, self.T, self.H)
                traj = rk4("dynamics.trajectory", dynamics.abnormal_trajectory, F, g, x0, self.T, self.H)
                vol = rk4("dynamics.volume", dynamics.volume_distortion, g.Z, cloud, self.CLOUD_T, self.H)
                scan = led.call(tr, "dynamics.scan", dynamics.divergence_ratio_scan,
                                g.Z, self.BOX, self.SCAN_SAMPLES, self.scan_seed, 1e-3)
            except Skip:
                continue
            out.units += (len(plain.states) - 1 + len(traj.states) - 1
                          + len(cloud) * (len(vol.times) - 1))
            out.frames.append({"name": name, "F": F, "goh": goh, "g": g, "cert": cert,
                               "plain": plain, "traj": traj, "vol": vol, "cloud": cloud,
                               "scan": scan})
        out.extra.update(cli=cli_runs, main=main_runs, main_latencies=main_latencies,
                         child_rss=child_rss)
        return out

    def check(self, rec: Pass, led: Ledger):
        expected = sum(len(v) for v in self.argvs.values())
        led.expect(len(rec.extra["cli"]) == expected and len(rec.extra["main"]) == expected
                   and len(rec.frames) == len(self.FLOWS), "demos-numeric: an operation failed")
        main_out = {(name, tuple(argv)): res for name, argv, res in rec.extra["main"]}
        for name, argv, (code, out, err, _) in rec.extra["cli"]:
            label = f"{name} {argv[0]}"
            led.expect(code == 0, f"{label}: exit code {code}: {err.strip()[-300:]}")
            led.expect(main_out.get((name, tuple(argv))) == (code, out),
                       f"{label}: in-process main differs from the CLI child")
            if code != 0:
                continue
            if argv[0] == "certify":
                certs = json.loads(out)["results"]["certificates"]
                led.expect(bool(certs) and all(c["phase_divergence"] == "0" and c["jacobi_expansion"] == "0"
                                               and c.get("base_residual", "0") == "0" for c in certs),
                           f"{label}: nonzero certificate residual")
            elif argv[0] == "integrate":
                rows = [line.split(",") for line in out.splitlines()
                        if not line.startswith(("#", "t,"))]
                led.expect(len(rows) == round(self.T / self.H) + 1, f"{label}: {len(rows)} CSV rows")
                worst = max(max(float(r[-2]), float(r[-1])) for r in rows)
                led.expect(worst <= 1e-10, f"{label}: residual {worst} above the 1e-10 tolerance")
        for fr in rec.frames:
            label = fr["name"]
            led.expect(fr["cert"].ok(), f"{label}: certificate not ok")
            led.expect(fr["traj"].certified, f"{label}: trajectory residuals above tolerance")
            led.expect(np.array_equal(fr["plain"].states, fr["traj"].states),
                       f"{label}: integrate_field and abnormal_trajectory disagree")
            self._check_volume(led, fr)

    def _check_volume(self, led, fr):
        """min weight >= exp(-K C)(1 - 1e-3): div Z = sum c_j Z_j (the
        certificate), so |div Z| <= K |Z|_inf with K = sup sum |c_j| along
        the flow, and C is the longest sup-norm trajectory length."""
        vol, cert, g = fr["vol"], fr["cert"], fr["g"]
        ok = bool(np.all(np.isfinite(vol.weights)) and np.all(vol.weights > 0))
        K = fr["scan"].ratio_sup
        for x0 in fr["cloud"]:
            states = dynamics.integrate_field(g.Z, x0, self.CLOUD_T, self.H).states
            for s in states:
                point = s.tolist()
                K = max(K, sum(abs(c.eval_float(point)) for c in cert.base_coefficients or ()))
        C = float(vol.lengths.max())
        ok = ok and vol.min_final_weight() >= math.exp(-K * C) * (1 - 1e-3)
        led.expect(ok, f"{fr['name']}: volume weights break the exp(-K C) bound")

    def digest_chunks(self, rec: Pass):
        # float CSV (integrate) is checked against its tolerance instead
        for name, argv, (code, out, _, _) in rec.extra["cli"]:
            if argv[0] != "integrate":
                yield f"{name} {argv} {code}"
                yield out
        for fr in rec.frames:
            yield f"{fr['name']} I={fr['g'].I} Z={fr['g'].Z} c={fr['cert'].base_constant}"

    def counts(self, rec: Pass) -> dict:
        out = _generator_counts([{"goh": fr["goh"], "gens": [fr["g"]], "certs": [fr["cert"]]}
                                 for fr in rec.frames])
        samples = sum(fr["scan"].samples for fr in rec.frames)
        skipped = sum(fr["scan"].skipped for fr in rec.frames)
        out["dynamics.rk4_steps"] = rec.units
        out["dynamics.scan_skipped_ratio"] = skipped / samples if samples else 0.0
        return out


WORKLOADS = {cls.name: cls for cls in (CertifyRandom, DenseKernel, StratifySample, DemosNumeric)}
