"""Exact discrete information theory on small alphabets.

Everything here enumerates probability tables in 64-bit floats; nothing is
estimated from samples.  The centerpiece is the residual identity: for a
source X and a prediction X~ on integer alphabets, the entropy of the
residual X - X~ equals the conditional entropy H(X|X~) plus the mutual
information between the prediction and the residual.  The bottleneck report
extends this to a coarsened prediction Y~ = f(X~) and verifies the chain of
(in)equalities that quantify what a lossy prediction branch costs.

Identity checks compute both sides by independent enumeration; the
conditional mutual information, in particular, comes from the full
three-variable table rather than from the identity under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IdentityError

SUM_TOL = 1e-12
IDENTITY_TOL = 1e-10
EQUALITY_TOL = 1e-12


def entropy(pmf):
    """Shannon entropy in bits of any probability table (flattened)."""
    p = np.asarray(pmf, dtype=np.float64).ravel()
    if p.size == 0:
        raise ContractError("empty probability table")
    if np.any(p < 0):
        raise ContractError("negative probability entry")
    if abs(p.sum() - 1.0) > SUM_TOL:
        raise ContractError(f"probabilities sum to {p.sum()!r}, not 1")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint pmf over (x, xt) with explicit integer alphabets.  Rows index
    the source alphabet, columns the prediction alphabet."""
    alphabet_x: tuple
    alphabet_xt: tuple
    pmf: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pmf, dtype=np.float64)
        object.__setattr__(self, "pmf", p)
        object.__setattr__(self, "alphabet_x", tuple(self.alphabet_x))
        object.__setattr__(self, "alphabet_xt", tuple(self.alphabet_xt))
        if p.ndim != 2:
            raise ContractError(f"pmf must be 2-D, got shape {p.shape}")
        if p.shape != (len(self.alphabet_x), len(self.alphabet_xt)):
            raise ContractError(f"pmf shape {p.shape} does not match alphabets "
                                f"({len(self.alphabet_x)}, {len(self.alphabet_xt)})")
        if len(set(self.alphabet_x)) != len(self.alphabet_x):
            raise ContractError("duplicate source alphabet symbols")
        if len(set(self.alphabet_xt)) != len(self.alphabet_xt):
            raise ContractError("duplicate prediction alphabet symbols")
        if np.any(p < 0):
            raise ContractError("negative probability entry")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise ContractError(f"pmf sums to {p.sum()!r}, not 1")

    def marginal_x(self):
        return self.pmf.sum(axis=1)

    def marginal_xt(self):
        return self.pmf.sum(axis=0)

    def integer_alphabets(self):
        return (all(isinstance(v, (int, np.integer)) for v in self.alphabet_x)
                and all(isinstance(v, (int, np.integer)) for v in self.alphabet_xt))


def joint_entropy(joint):
    return entropy(joint.pmf)


def cond_entropy(joint):
    """H(X|X~), as sum over conditions of weighted branch entropies."""
    total = 0.0
    for row in joint.pmf.T:
        w = row.sum()
        if w > 0:
            total += w * entropy(row / w)
    return float(total)


def mutual_info(joint):
    val = (entropy(joint.marginal_x()) + entropy(joint.marginal_xt())
           - joint_entropy(joint))
    if val < -SUM_TOL:
        raise ContractError(f"mutual information {val} below zero")
    return max(val, 0.0)


def residual_pmf(joint):
    """Push-forward distribution of R = X - X~ and the joint of (X~, R).

    Returns (r_alphabet, r_pmf, xt_r_joint)."""
    if not joint.integer_alphabets():
        raise ContractError("residuals need integer alphabets")
    diffs = {}
    for i, xv in enumerate(joint.alphabet_x):
        for j, tv in enumerate(joint.alphabet_xt):
            diffs.setdefault(int(xv) - int(tv), 0.0)
    r_alphabet = tuple(sorted(diffs))
    r_index = {r: k for k, r in enumerate(r_alphabet)}
    r_p = np.zeros(len(r_alphabet), dtype=np.float64)
    tr = np.zeros((len(joint.alphabet_xt), len(r_alphabet)), dtype=np.float64)
    for i, xv in enumerate(joint.alphabet_x):
        for j, tv in enumerate(joint.alphabet_xt):
            k = r_index[int(xv) - int(tv)]
            r_p[k] += joint.pmf[i, j]
            tr[j, k] += joint.pmf[i, j]
    xt_r = DiscreteJoint(joint.alphabet_xt, r_alphabet, tr)
    return r_alphabet, r_p, xt_r


def verify_main_identity(joint):
    """Check H(X - X~) = H(X|X~) + I(X~; R) by independent enumeration.

    Returns a report dict; raises IdentityError if the identity fails,
    which signals an implementation bug rather than a counterexample."""
    _, r_p, xt_r = residual_pmf(joint)
    h_r = entropy(r_p)
    h_x_given_xt = cond_entropy(joint)
    i_xt_r = mutual_info(xt_r)
    residual = abs(h_r - h_x_given_xt - i_xt_r)
    report = {
        "H_R": h_r,
        "H_x_given_xt": h_x_given_xt,
        "I_xt_R": i_xt_r,
        "residual_abs": residual,
        "equality": i_xt_r <= EQUALITY_TOL,
    }
    if residual > IDENTITY_TOL:
        raise IdentityError(f"residual identity off by {residual} bits", joint=joint)
    if h_r < h_x_given_xt - EQUALITY_TOL:
        raise IdentityError(f"H(R) = {h_r} fell below H(X|X~) = {h_x_given_xt}",
                            joint=joint)
    return report


@dataclass(frozen=True)
class BottleneckMap:
    """A total deterministic map from the prediction alphabet to a coarser
    latent alphabet, given as a value -> value mapping."""
    table: tuple  # ((xt_value, y_value), ...)

    def __post_init__(self):
        object.__setattr__(self, "table", tuple((k, v) for k, v in self.table))
        keys = [k for k, _ in self.table]
        if len(set(keys)) != len(keys):
            raise ContractError("map defined twice for some input")

    def domain(self):
        return tuple(k for k, _ in self.table)

    def codomain(self):
        return tuple(sorted(set(v for _, v in self.table)))

    def apply(self, xt):
        for k, v in self.table:
            if k == xt:
                return v
        raise ContractError(f"map not defined at {xt!r}")

    def is_injective(self):
        vals = [v for _, v in self.table]
        return len(set(vals)) == len(vals)


def _triple_table(joint, f):
    """p(x, xt, y) with y = f(xt), plus the y alphabet."""
    dom = set(f.domain())
    for tv in joint.alphabet_xt:
        if tv not in dom:
            raise ContractError(f"map not total: missing {tv!r}")
    ys = f.codomain()
    y_index = {y: k for k, y in enumerate(ys)}
    p3 = np.zeros((len(joint.alphabet_x), len(joint.alphabet_xt), len(ys)),
                  dtype=np.float64)
    for j, tv in enumerate(joint.alphabet_xt):
        p3[:, j, y_index[f.apply(tv)]] = joint.pmf[:, j]
    return ys, p3


def _cond_mutual_info(p3):
    """I(X; X~ | Y) from the full three-way table, by definition."""
    p_y = p3.sum(axis=(0, 1))
    p_xy = p3.sum(axis=1)
    p_ty = p3.sum(axis=0)
    total = 0.0
    nx, nt, ny = p3.shape
    for k in range(ny):
        if p_y[k] <= 0:
            continue
        for i in range(nx):
            for j in range(nt):
                p = p3[i, j, k]
                if p > 0:
                    total += p * np.log2(p * p_y[k] / (p_xy[i, k] * p_ty[j, k]))
    return float(total)


def bottleneck_report(joint, f):
    """Quantify what coarsening the prediction through f costs.

    Asserts, with Y = f(X~) and R = X - X~:
      1. H(X~) >= H(Y)                      (a function cannot add entropy)
      2. H(X|X~) <= H(X|Y)                  (finer conditioning helps)
      3. H(X|X~) = H(X|Y) - I(X; X~ | Y)
      4. H(R) = H(X|Y) - I(X; X~ | Y) + I(X~; R)
      5. I(X; X~ | Y) >= 0
      6. f injective  =>  I(X; X~ | Y) = 0
    The conditional mutual information in 3 and 4 comes from direct
    three-variable enumeration, so the equalities are real cross-checks."""
    ys, p3 = _triple_table(joint, f)
    h_xt = entropy(joint.marginal_xt())
    h_y = entropy(p3.sum(axis=(0, 1)))
    h_x_given_xt = cond_entropy(joint)
    xy_joint = DiscreteJoint(joint.alphabet_x, ys, p3.sum(axis=1))
    h_x_given_y = cond_entropy(xy_joint)
    i_cond = _cond_mutual_info(p3)
    _, r_p, xt_r = residual_pmf(joint)
    h_r = entropy(r_p)
    i_xt_r = mutual_info(xt_r)

    checks = {
        "function_entropy": h_xt >= h_y - EQUALITY_TOL,
        "finer_conditioning": h_x_given_xt <= h_x_given_y + EQUALITY_TOL,
        "conditioning_identity": abs(h_x_given_xt - (h_x_given_y - i_cond)) <= IDENTITY_TOL,
        "residual_identity": abs(h_r - (h_x_given_y - i_cond + i_xt_r)) <= IDENTITY_TOL,
        "cond_mi_nonneg": i_cond >= -EQUALITY_TOL,
        "injective_no_loss": (not f.is_injective()) or i_cond <= EQUALITY_TOL,
    }
    report = {
        "H_xt": h_xt, "H_y": h_y,
        "H_x_given_xt": h_x_given_xt, "H_x_given_y": h_x_given_y,
        "I_x_xt_given_y": i_cond, "I_xt_R": i_xt_r, "H_R": h_r,
        "checks": checks,
    }
    for name, ok in checks.items():
        if not ok:
            raise IdentityError(f"bottleneck check {name!r} failed: {report}",
                                joint=joint)
    return report


# -- case generators --------------------------------------------------------

def random_joint(rng, nx=4, nxt=4):
    """Flat-Dirichlet random joint on alphabets 0..nx-1 and 0..nxt-1."""
    p = rng.dirichlet(np.ones(nx * nxt)).reshape(nx, nxt)
    return DiscreteJoint(tuple(range(nx)), tuple(range(nxt)), p)


def additive_noise_joint(rng, nx=6, span=2):
    """Prediction = source + bounded random offset: X~ = X + N with N in
    [-span, span], source and noise both flat-Dirichlet random."""
    px = rng.dirichlet(np.ones(nx))
    pn = rng.dirichlet(np.ones(2 * span + 1))
    xt_alphabet = tuple(range(-span, nx + span))
    p = np.zeros((nx, len(xt_alphabet)), dtype=np.float64)
    for i in range(nx):
        for k, n in enumerate(range(-span, span + 1)):
            p[i, i + n + span] += px[i] * pn[k]
    return DiscreteJoint(tuple(range(nx)), xt_alphabet, p)


def perfect_prediction_joint(rng, n=4):
    """The X = X~ corner case."""
    px = rng.dirichlet(np.ones(n))
    return DiscreteJoint(tuple(range(n)), tuple(range(n)), np.diag(px))


def random_map(rng, domain, codomain_size=None, injective=False):
    domain = tuple(domain)
    if injective:
        images = rng.permutation(len(domain))
        return BottleneckMap(tuple(zip(domain, (int(v) for v in images))))
    m = codomain_size if codomain_size else max(1, len(domain) // 2)
    images = rng.integers(0, m, size=len(domain))
    return BottleneckMap(tuple(zip(domain, (int(v) for v in images))))
