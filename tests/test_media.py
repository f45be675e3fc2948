import math

import numpy as np
import pytest

from mslwave import (Layer, LayeredStructure, MslCoefficients, ShPiezoParams,
                     SingularMatrixError, StructuralError, make_quantum_medium,
                     make_scalar_medium, make_sh_piezo_medium, secular_matrix,
                     sh_piezo_expected_wavenumbers, solve_qep,
                     validate_coefficients)


def test_validate_passes_real_symmetric_scalars():
    m = make_scalar_medium(1, 0, 0, -1)
    report = validate_coefficients(m)
    assert report.passed
    assert report.violations == ()


def test_validate_rejects_singular_b():
    m = MslCoefficients(b=[[0.0]], p=[[0.0]], y=[[0.0]], w=[[1.0]])
    report = validate_coefficients(m)
    assert not report.passed
    assert any("B singular" in v.condition for v in report.violations)


def test_y_p_residual_computed_directly():
    # the check is the directly computed residual ||y + p^H||: for a
    # purely imaginary scalar p, y = p satisfies y = -p^H exactly
    ok = MslCoefficients(b=[[1.0]], p=[[1j]], y=[[1j]], w=[[0.0]])
    assert np.linalg.norm(ok.y + ok.p.conj().T) == 0.0
    assert validate_coefficients(ok).passed
    # a real scalar p with y = p violates it with residual ||y + p^H|| = 2
    bad = MslCoefficients(b=[[1.0]], p=[[1.0]], y=[[1.0]], w=[[0.0]])
    report = validate_coefficients(bad)
    assert not report.passed
    viol = {v.condition: v.magnitude for v in report.violations}
    assert viol["Y != -P^H"] == pytest.approx(2.0 / 1.0)


def test_dimension_mismatch_is_structural():
    with pytest.raises(StructuralError):
        MslCoefficients(b=[[1.0]], p=[[0.0, 0.0], [0.0, 0.0]],
                        y=[[0.0]], w=[[0.0]])


def test_make_scalar_medium_roots():
    evanescent = make_scalar_medium(1, 0, 0, -1)
    assert sorted(solve_qep(evanescent).ks, key=lambda k: k.imag) \
        == pytest.approx([-1j, 1j])
    propagating = make_scalar_medium(1, 0, 0, 4)
    assert sorted(solve_qep(propagating).ks.real) == pytest.approx([-2.0, 2.0])


def test_make_scalar_medium_rejects_zero_b():
    with pytest.raises(SingularMatrixError):
        make_scalar_medium(0, 0, 0, 1)


def test_quantum_medium_free_particle():
    m = make_quantum_medium(mass=1.0, potential=0.0, energy=4.0)
    ks = solve_qep(m).ks
    assert sorted(ks.real) == pytest.approx([-2.0, 2.0])


def test_quantum_medium_below_barrier():
    m = make_quantum_medium(mass=1.0, potential=10.0, energy=4.0)
    ks = solve_qep(m).ks
    # k = +-i sqrt(6); cross-checked against the secular matrix directly
    expected = math.sqrt(6.0)
    assert sorted(ks.imag) == pytest.approx([-expected, expected])
    assert abs(secular_matrix(m, 1j * expected)[0, 0]) < 1e-12


def test_quantum_medium_band_edge_degenerate():
    m = make_quantum_medium(mass=1.0, potential=4.0, energy=4.0)
    basis = solve_qep(m)
    assert basis.degenerate
    assert basis.ks == pytest.approx([0.0, 0.0])
    assert len(basis.plus) == len(basis.minus) == 1


def test_sh_piezo_matrices_and_eigenstructure():
    params = ShPiezoParams(rho=7500.0, c44=2.56e10, e15=12.7, eps11=6.46e-9,
                           omega=2 * math.pi * 1.0e8, kappa_x=2 * math.pi * 1.0e8 / 2000.0)
    m = make_sh_piezo_medium(params)
    assert m.n == 2
    assert validate_coefficients(m).passed
    k1, k3 = sh_piezo_expected_wavenumbers(params)
    assert k1 == pytest.approx(-1j * params.kappa_x)
    # both printed eigenvalues are zeros of the secular determinant
    for k in (k1, -k1, k3, -k3):
        theta = secular_matrix(m, k)
        assert abs(np.linalg.det(theta)) < 1e-8 * np.linalg.norm(theta, 2) ** 2


def test_sh_piezo_below_bulk_speed_is_evanescent():
    params = ShPiezoParams(rho=7500.0, c44=2.56e10, e15=12.7, eps11=6.46e-9,
                           omega=1.0e8, kappa_x=1.0e8 / 1000.0)
    assert params.v_surface < params.v_bulk
    _, k3 = sh_piezo_expected_wavenumbers(params)
    assert abs(k3.real) < 1e-9 * abs(k3)
    assert k3.imag < 0


def test_sh_piezo_zero_coupling_decouples():
    params = ShPiezoParams(rho=7500.0, c44=2.56e10, e15=0.0, eps11=6.46e-9,
                           omega=1.0e8, kappa_x=1.0e5)
    m = make_sh_piezo_medium(params)
    assert m.w[0, 1] == 0 and m.w[1, 0] == 0
    assert m.b[0, 1] == 0 and m.b[1, 0] == 0


def test_sh_piezo_rejects_nonpositive_eps11():
    with pytest.raises(SingularMatrixError):
        ShPiezoParams(rho=7500.0, c44=2.56e10, e15=12.7, eps11=0.0,
                      omega=1.0, kappa_x=1.0)


def test_layer_rejects_negative_thickness():
    m = make_scalar_medium(1, 0, 0, -1)
    with pytest.raises(StructuralError):
        Layer(m, -1.0)


def test_structure_requires_uniform_n():
    scalar = make_scalar_medium(1, 0, 0, -1)
    piezo = make_sh_piezo_medium(ShPiezoParams(
        rho=7500.0, c44=2.56e10, e15=12.7, eps11=6.46e-9,
        omega=1.0e8, kappa_x=1.0e5))
    with pytest.raises(StructuralError):
        LayeredStructure(left=scalar, layers=(Layer(piezo, 1.0),), right=scalar)


def test_structure_interface_coordinates():
    m = make_scalar_medium(1, 0, 0, -1)
    s = LayeredStructure(left=m, layers=(Layer(m, 1.0), Layer(m, 2.5)), right=m)
    assert s.interfaces == pytest.approx([0.0, 1.0, 3.5])
    assert s.total_thickness == pytest.approx(3.5)


def test_media_are_immutable():
    m = make_scalar_medium(1, 0, 0, -1)
    with pytest.raises(ValueError):
        m.b[0, 0] = 2.0


def test_is_formally_hermitian_honours_rtol():
    h = np.array([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, -3.0]])
    w = h.copy()
    # an antihermitian part of 1e-10 relative size in w
    w[0, 1] += 1e-10 * np.linalg.norm(h) / math.sqrt(2.0)
    dev = np.linalg.norm(w - w.conj().T) / np.linalg.norm(w)
    assert dev == pytest.approx(1e-10, rel=1e-3)
    m = MslCoefficients(b=np.eye(2), p=np.zeros((2, 2)), y=np.zeros((2, 2)),
                        w=w)
    assert not m.is_formally_hermitian()
    assert m.is_formally_hermitian(rtol=1e-8)
