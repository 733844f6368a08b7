"""Discrete information-theory checks.

The worked numbers below were derived by hand from closed forms (the
conditional-entropy example is 0.75 * (log2 3 - 2/3) bits) and are frozen
as decimals so the code under test cannot define its own truth.
"""

import math

import numpy as np
import pytest

from gdclab import infolab as I
from gdclab.errors import ContractError, IdentityError


class TestEntropy:
    def test_closed_forms(self):
        assert I.entropy([0.25] * 4) == 2.0
        assert I.entropy([0.5, 0.25, 0.25]) == 1.5
        assert I.entropy([1.0]) == 0.0
        assert I.entropy([0.5, 0.5, 0.0]) == 1.0

    def test_contracts(self):
        with pytest.raises(ContractError):
            I.entropy([])
        with pytest.raises(ContractError):
            I.entropy([0.7, -0.1, 0.4])
        with pytest.raises(ContractError):
            I.entropy([0.3, 0.3])


class TestDiscreteJoint:
    def test_marginals(self):
        j = I.DiscreteJoint((0, 1), (0, 1), np.array([[0.5, 0.0], [0.25, 0.25]]))
        assert j.marginal_x() == pytest.approx([0.5, 0.5])
        assert j.marginal_xt() == pytest.approx([0.75, 0.25])
        assert j.integer_alphabets()

    def test_non_integer_alphabet_flagged(self):
        j = I.DiscreteJoint(("a", "b"), (0, 1), np.full((2, 2), 0.25))
        assert not j.integer_alphabets()
        with pytest.raises(ContractError):
            I.residual_pmf(j)

    def test_contracts(self):
        with pytest.raises(ContractError):
            I.DiscreteJoint((0, 1), (0,), np.full((2, 2), 0.25))
        with pytest.raises(ContractError):
            I.DiscreteJoint((0, 0), (0, 1), np.full((2, 2), 0.25))
        with pytest.raises(ContractError):
            I.DiscreteJoint((0, 1), (0, 1), np.array([[0.5, 0.5], [0.5, -0.5]]))
        with pytest.raises(ContractError):
            I.DiscreteJoint((0, 1), (0, 1), np.full((2, 2), 0.3))
        with pytest.raises(ContractError):
            I.DiscreteJoint((0,), (0,), np.ones(1))


class TestCondEntropy:
    def test_worked_example(self):
        # p = [[1/2, 0], [1/4, 1/4]]: conditioning on the first column
        # (weight 3/4) leaves a (2/3, 1/3) split, the second is certain:
        #   H(X|X~) = 3/4 * (log2 3 - 2/3) = 0.688721...
        j = I.DiscreteJoint((0, 1), (0, 1), np.array([[0.5, 0.0], [0.25, 0.25]]))
        h = I.cond_entropy(j)
        assert h == pytest.approx(0.75 * (math.log2(3.0) - 2.0 / 3.0), abs=1e-12)
        assert h == pytest.approx(0.6887218755408672, abs=1e-12)

    def test_both_directions(self):
        # chain rule cross-check: H(X|X~) + H(X~) == H(X~|X) + H(X), with
        # H(X~|X) taken from the transposed joint
        rng = np.random.default_rng(0)
        j = I.random_joint(rng, 5, 3)
        jt = I.DiscreteJoint(j.alphabet_xt, j.alphabet_x, j.pmf.T)
        lhs = I.cond_entropy(j) + I.entropy(j.marginal_xt())
        rhs = I.cond_entropy(jt) + I.entropy(j.marginal_x())
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(I.joint_entropy(j), abs=1e-12)


class TestResidualIdentity:
    def test_independent_uniform_binary(self):
        # independent bits: H(R) = 1.5 splits as H(X|X~) = 1 plus
        # I(X~;R) = 0.5, and the residual law is (1/4, 1/2, 1/4)
        j = I.DiscreteJoint((0, 1), (0, 1), np.full((2, 2), 0.25))
        rep = I.verify_main_identity(j)
        assert rep["H_R"] == pytest.approx(1.5, abs=1e-12)
        assert rep["H_x_given_xt"] == pytest.approx(1.0, abs=1e-12)
        assert rep["I_xt_R"] == pytest.approx(0.5, abs=1e-12)
        assert not rep["equality"]
        r_alpha, r_p, _ = I.residual_pmf(j)
        assert r_alpha == (-1, 0, 1)
        assert r_p == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_perfect_prediction(self):
        rep = I.verify_main_identity(
            I.perfect_prediction_joint(np.random.default_rng(1), 4))
        assert abs(rep["H_R"]) <= 1e-12
        assert rep["equality"]

    def test_shifted_prediction_keeps_equality(self):
        # a constant offset changes nothing: R is a deterministic shift
        pmf = np.zeros((3, 3))
        np.fill_diagonal(pmf, [0.2, 0.5, 0.3])
        j = I.DiscreteJoint((1, 2, 3), (0, 1, 2), pmf)
        rep = I.verify_main_identity(j)
        assert abs(rep["H_R"]) <= 1e-12
        assert rep["equality"]

    def test_random_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            j = I.random_joint(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            rep = I.verify_main_identity(j)
            assert rep["residual_abs"] <= I.IDENTITY_TOL

    def test_additive_noise_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = I.additive_noise_joint(rng, 5, 2)
            I.verify_main_identity(j)

    def test_tightened_tolerance_raises(self, monkeypatch):
        # force a failure by making the tolerance impossible; the error
        # carries the joint for debugging
        monkeypatch.setattr(I, "IDENTITY_TOL", -1.0)
        j = I.DiscreteJoint((0, 1), (0, 1), np.full((2, 2), 0.25))
        with pytest.raises(IdentityError) as exc:
            I.verify_main_identity(j)
        assert exc.value.joint is j


class TestBottleneckMap:
    def test_basic_accessors(self):
        f = I.BottleneckMap(((0, 5), (1, 5), (2, 7)))
        assert f.domain() == (0, 1, 2)
        assert f.codomain() == (5, 7)
        assert f.apply(1) == 5
        assert not f.is_injective()
        assert I.BottleneckMap(((0, 1), (1, 0))).is_injective()

    def test_contracts(self):
        with pytest.raises(ContractError):
            I.BottleneckMap(((0, 1), (0, 2)))
        f = I.BottleneckMap(((0, 0),))
        with pytest.raises(ContractError):
            f.apply(3)


class TestBottleneckReport:
    def test_parity_costs_one_bit(self):
        # X = X~ uniform on four values, Y = parity: given Y, two equally
        # likely values remain, so I(X; X~ | Y) is exactly one bit
        u4 = I.DiscreteJoint((0, 1, 2, 3), (0, 1, 2, 3), np.diag([0.25] * 4))
        par = I.BottleneckMap(((0, 0), (1, 1), (2, 0), (3, 1)))
        rep = I.bottleneck_report(u4, par)
        assert rep["I_x_xt_given_y"] == pytest.approx(1.0, abs=1e-12)
        assert rep["H_x_given_y"] == pytest.approx(1.0, abs=1e-12)
        assert all(rep["checks"].values())

    def test_identity_map_loses_nothing(self):
        u4 = I.DiscreteJoint((0, 1, 2, 3), (0, 1, 2, 3), np.diag([0.25] * 4))
        ident = I.BottleneckMap(tuple((v, v) for v in u4.alphabet_xt))
        rep = I.bottleneck_report(u4, ident)
        assert rep["I_x_xt_given_y"] <= 1e-12
        assert rep["H_x_given_y"] == pytest.approx(rep["H_x_given_xt"], abs=1e-12)

    def test_constant_map_discards_everything(self):
        rng = np.random.default_rng(4)
        j = I.random_joint(rng, 4, 4)
        const = I.BottleneckMap(tuple((v, 0) for v in j.alphabet_xt))
        rep = I.bottleneck_report(j, const)
        assert rep["H_x_given_y"] == pytest.approx(I.entropy(j.marginal_x()), abs=1e-12)
        assert rep["I_x_xt_given_y"] == pytest.approx(I.mutual_info(j), abs=1e-10)

    def test_injective_maps_cost_nothing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            j = I.random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            f = I.random_map(rng, j.alphabet_xt, injective=True)
            rep = I.bottleneck_report(j, f)
            assert rep["I_x_xt_given_y"] <= 1e-12

    def test_random_sweep_all_checks(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            j = I.random_joint(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            for _ in range(5):
                f = I.random_map(rng, j.alphabet_xt,
                                 codomain_size=int(rng.integers(1, len(j.alphabet_xt) + 1)))
                rep = I.bottleneck_report(j, f)
                assert all(rep["checks"].values())

    def test_monotone_coarsening(self):
        # merging codomain values can only blur the conditioning
        rng = np.random.default_rng(7)
        for _ in range(30):
            j = I.random_joint(rng, 5, 6)
            f1 = I.random_map(rng, j.alphabet_xt, codomain_size=4)
            cod = f1.codomain()
            if len(cod) < 2:
                continue
            merge = {y: min(i, len(cod) - 2) for i, y in enumerate(cod)}
            f2 = I.BottleneckMap(
                tuple((t, merge[f1.apply(t)]) for t in j.alphabet_xt))
            rep1 = I.bottleneck_report(j, f1)
            rep2 = I.bottleneck_report(j, f2)
            assert rep2["H_x_given_y"] >= rep1["H_x_given_y"] - 1e-12

    def test_partial_map_rejected(self):
        j = I.DiscreteJoint((0, 1), (0, 1), np.full((2, 2), 0.25))
        with pytest.raises(ContractError):
            I.bottleneck_report(j, I.BottleneckMap(((0, 0),)))


class TestGenerators:
    def test_random_joint_alphabets(self):
        j = I.random_joint(np.random.default_rng(8), 3, 5)
        assert j.alphabet_x == (0, 1, 2)
        assert j.alphabet_xt == (0, 1, 2, 3, 4)
        assert j.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_additive_noise_support(self):
        j = I.additive_noise_joint(np.random.default_rng(9), nx=4, span=1)
        assert j.alphabet_xt == tuple(range(-1, 5))
        # mass only where |x - xt| <= span
        for i, xv in enumerate(j.alphabet_x):
            for k, tv in enumerate(j.alphabet_xt):
                if abs(xv - tv) > 1:
                    assert j.pmf[i, k] == 0.0

    def test_random_map_codomain_size(self):
        rng = np.random.default_rng(10)
        f = I.random_map(rng, range(6), codomain_size=2)
        assert set(f.codomain()) <= {0, 1}
        g = I.random_map(rng, range(6), injective=True)
        assert g.is_injective()
