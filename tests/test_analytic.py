import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from analytic_oracles import (
    EvenPDecomposition,
    SymmetryTransform,
    all_even_p_decompositions,
    canonicalize,
    even_p_decomposition,
    f_of_m,
    p1_fidelity_closed_form,
    symmetry_group,
    verify_power_identity,
)
from pspin_qaoa.analytic import exact_p1_params
from fullspace import fidelity, sector_energy, sector_ground_state
from pspin_qaoa.engine import QaoaParams, qaoa_state
from pspin_qaoa.optimizer import r_init
from pspin_qaoa.sector import ProblemSpec


def params_of(gammas, betas):
    return QaoaParams(gammas=np.atleast_1d(gammas), betas=np.atleast_1d(betas))


class TestFOfM:
    def test_values(self):
        assert [f_of_m(m) for m in (1, 3, 5, 7, 9, -1, -3, 15)] == [
            0, 1, 1, 0, 0, 0, 1, 0,
        ]

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            f_of_m(4)

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda m: m % 2))
    @settings(max_examples=50)
    def test_period_eight(self, m):
        assert f_of_m(m) == f_of_m(m + 8)
        assert f_of_m(m) == f_of_m(-m)


class TestDecomposition:
    def test_small_cases(self):
        assert even_p_decomposition(2) == EvenPDecomposition(k=0, n=0)
        assert even_p_decomposition(4) == EvenPDecomposition(k=1, n=0)
        # p = 6 can also be written as (k=1, n=1), but only 4 | n works
        assert even_p_decomposition(6) == EvenPDecomposition(k=0, n=4)
        assert set(
            (d.k, d.n) for d in all_even_p_decompositions(6)
        ) == {(0, 4), (1, 1)}

    def test_exhaustive_reconstruction(self):
        for p in range(2, 65, 2):
            chosen = even_p_decomposition(p)
            assert chosen.reconstruct() == p
            assert chosen.n % 4 == 0
            decs = all_even_p_decompositions(p)
            assert decs, p
            for d in decs:
                assert d.reconstruct() == p
            # the divisible-by-4 representation is unique
            assert [d for d in decs if d.n % 4 == 0] == [chosen]

    def test_power_of_two(self):
        # p = 2^j decomposes as 2^(k+1) with k = j-1, n = 0
        for j in range(1, 7):
            d = even_p_decomposition(2**j)
            assert (d.k, d.n) == (j - 1, 0)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            even_p_decomposition(3)


class TestPowerIdentity:
    def test_examples(self):
        # p=2 (k=0, n=0): m^2 mod 16 is 1 or 9 for odd m
        assert pow(3, 2, 16) == 9 and f_of_m(3) == 1
        assert pow(7, 2, 16) == 1 and f_of_m(7) == 0
        assert verify_power_identity(0, 0, 3)
        assert verify_power_identity(1, 4, 5)

    def test_exhaustive_small(self):
        for k in range(0, 7):
            for n in range(0, 13, 4):
                mod = 2 ** (k + 4)
                for m in range(1, 2 * mod, 2):
                    assert verify_power_identity(k, n, m), (k, n, m)

    def test_fails_without_divisibility(self):
        # n = 1 turns the exponent odd/misaligned and the claim breaks
        assert not verify_power_identity(0, 1, 3)
        assert not verify_power_identity(1, 2, 3)

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=12).map(lambda n: 4 * n),
        st.integers(min_value=-10**9, max_value=10**9).filter(lambda m: m % 2),
    )
    @settings(max_examples=100)
    def test_property(self, k, n, m):
        assert verify_power_identity(k, n, m)

    def test_rejects_even_m(self):
        with pytest.raises(ValueError):
            verify_power_identity(0, 0, 2)


class TestExactDepth1Params:
    def test_no_solution_for_even_sites(self):
        assert exact_p1_params(2, 8) is None
        assert exact_p1_params(3, 4) is None

    def test_odd_p(self):
        assert exact_p1_params(3, 7) == (np.pi / 4, np.pi / 4)
        assert exact_p1_params(5, 11) == (np.pi / 4, np.pi / 4)

    def test_even_p(self):
        gamma, beta = exact_p1_params(2, 9)
        assert gamma == pytest.approx(np.pi / 8)
        assert beta == np.pi / 4
        gamma4, _ = exact_p1_params(4, 9)
        assert gamma4 == pytest.approx(np.pi / 16)
        # p = 6 routes through (k=0, n=4), not (k=1, n=1)
        gamma6, _ = exact_p1_params(6, 9)
        assert gamma6 == pytest.approx(np.pi / 8)

    def test_even_p_closed_form_is_the_decomposition_angle(self):
        for p in range(2, 65, 2):
            assert exact_p1_params(p, 3)[0] == even_p_decomposition(p).gamma, p

    @pytest.mark.parametrize("p,n,field", [
        (3, 5.0, "n_sites"), (4.0, 5, "p_exponent"), (True, 5, "p_exponent"), (2, 0, "n_sites"),
    ])
    def test_rejects_what_problem_spec_rejects(self, p, n, field):
        with pytest.raises(ValueError, match=field):
            exact_p1_params(p, n)

    def test_rejects_overflowing_sizes(self):
        with pytest.raises(OverflowError):
            exact_p1_params(2, 10**40 + 1)

    @pytest.mark.parametrize("p,n", [(2, 5), (2, 13), (3, 9), (4, 7), (5, 7), (6, 11)])
    def test_circuit_reaches_ground_state(self, p, n):
        gamma, beta = exact_p1_params(p, n)
        spec = ProblemSpec(n, p, 0.0)
        psi = qaoa_state(spec, params_of(gamma, beta))
        targ = sector_ground_state(spec)
        assert fidelity(psi, targ) > 1 - 1e-12

    def test_only_divisible_decomposition_is_exact(self):
        # for p=6, gamma = pi/8 from (k=0, n=4) prepares the ground state
        # while pi/16 from the rejected (k=1, n=1) representation does not
        spec = ProblemSpec(9, 6, 0.0)
        targ = sector_ground_state(spec)
        fids = {}
        for dec in all_even_p_decompositions(6):
            psi = qaoa_state(spec, params_of(dec.gamma, np.pi / 4))
            fids[(dec.k, dec.n)] = fidelity(psi, targ)
        assert fids[(0, 4)] > 1 - 1e-12
        assert fids[(1, 1)] < 0.5


class TestClosedFormFidelity:
    @pytest.mark.parametrize("p,n", [(2, 7), (3, 8), (3, 11), (4, 9), (5, 10)])
    def test_matches_circuit_on_gamma_grid(self, p, n):
        spec = ProblemSpec(n, p, 0.0)
        targ = sector_ground_state(spec)
        for gamma in np.linspace(0.0, np.pi, 64):
            via_circuit = fidelity(qaoa_state(spec, params_of(gamma, np.pi / 4)), targ)
            via_sum = p1_fidelity_closed_form(p, n, gamma)
            assert abs(via_circuit - via_sum) < 1e-10, (p, n, gamma)

    @pytest.mark.parametrize("p,n,gamma", [
        (3, 13, np.pi / 4), (2, 13, np.pi / 8),
        (3, 5, np.pi / 4), (5, 7, np.pi / 4), (2, 5, np.pi / 8), (4, 7, np.pi / 16),
    ], ids=["3-13", "2-13", "3-5", "5-7", "2-5", "4-7"])
    def test_unity_at_exact_angles(self, p, n, gamma):
        assert exact_p1_params(p, n) == (gamma, np.pi / 4)
        assert p1_fidelity_closed_form(p, n, gamma) == pytest.approx(1.0, abs=1e-12)

    def test_even_p_requires_odd_sites(self):
        with pytest.raises(ValueError):
            p1_fidelity_closed_form(2, 8, 0.3)


class TestSymmetries:
    @pytest.mark.parametrize("p,n", [(2, 6), (2, 7), (3, 6), (3, 7)])
    def test_energy_invariance(self, p, n):
        spec = ProblemSpec(n, p, 0.8)
        params = r_init(3, derive := 17)
        e0 = sector_energy(spec, qaoa_state(spec, params))
        for transform in symmetry_group(p, n):
            for component in range(3):
                mapped = transform.apply(params, component)
                e1 = sector_energy(spec, qaoa_state(spec, mapped))
                assert abs(e1 - e0) < 1e-11, (transform, component)

    def test_shift_periods(self):
        group = {t.kind: t for t in symmetry_group(3, 8)}
        assert group["beta_shift"].shift == np.pi
        assert group["gamma_shift"].shift == pytest.approx(np.pi / 4)
        group_even = {t.kind: t for t in symmetry_group(2, 7)}
        assert group_even["beta_shift"].shift == pytest.approx(np.pi / 2)
        assert group_even["gamma_shift"].shift == np.pi

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            SymmetryTransform(kind="bogus").apply(params_of(0.1, 0.2))


class TestCanonicalize:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_energy_preserved(self, seed):
        p, n = 2, 6
        spec = ProblemSpec(n, p, 0.4)
        params = r_init(2, seed)
        wild = QaoaParams(gammas=params.gammas * 7 - 3, betas=params.betas * 5 - 2)
        folded = canonicalize(wild, p, n)
        assert np.all(folded.gammas >= 0) and np.all(folded.gammas < np.pi / 2)
        assert np.all(folded.betas >= 0) and np.all(folded.betas < np.pi / 2)
        e_wild = sector_energy(spec, qaoa_state(spec, wild))
        e_fold = sector_energy(spec, qaoa_state(spec, folded))
        assert abs(e_wild - e_fold) < 1e-11

    def test_fixed_point(self):
        params = params_of([0.3], [0.2])
        folded = canonicalize(params, 3, 9)
        np.testing.assert_allclose(folded.to_vector(), params.to_vector())
