"""The paper's 3D problem, rebuilt from the package's radial chains: a charge e
in A = (ck/(e rho)) z^, so B = ck/(e rho^2) phi^. The z and angular phases, the
spin rotation and the rho^(-1/2) measure go around a normalised chain, and the
3D Hamiltonian is applied by central differences in x, y and z, never through
expalg. A coupling of the wrong sign (A -> -A) must fail the same check."""

import math

import numpy as np
import pytest
from conftest import ref_matrices, rng_for

from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder.params import FAMILIES, DiracParams, PhysicalParams

_M = ref_matrices()
ALPHA = [_M["ALPHA1"], _M["ALPHA2"], _M["ALPHA3"]]
SPIN = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]  # the diagonal of Sigma_3
# Three points (x, y, z), each with its neighbours at +h and then -h along x, y, z.
POINTS = np.array([(1.3, 0.4, -0.7), (0.6, -1.1, 0.3), (-0.9, 1.6, 1.5)])
_STEPS = np.concatenate([np.zeros((1, 3)), np.eye(3), -np.eye(3)])[:, None, :]
LEVELS = (0, 1, 3)
# The worst residuals below are h^2 floors (halving h quarters them): Dirac
# 2.3e-9 at h = 1e-4, scalar 2.1e-6 at h = 1e-3. Each bound is about 20 times
# that. The coupling of the wrong sign reads 0.84 or more.
H_DIRAC, DIRAC_BOUND = 1e-4, 5e-8
H_SCALAR, SCALAR_BOUND = 1e-3, 5e-5


def twin(p: DiracParams) -> PhysicalParams:
    """The set with hbar = c = e = 1 whose to_dirac() is p: m = mbar,
    pz = sqrt(d0^2 a^2 + b^2)/a, k = b/pz and ell = d0 a/pz, so lam = a and
    d0 = 0 gives ell = 0. mbar = 0 has no twin, since m > 0."""
    pz = math.hypot(p.d0 * p.a, p.b) / p.a
    return PhysicalParams(hbar=1, m=p.mbar, c=1, e=1, k=p.b / pz, pz=pz, ell=p.d0 * p.a / pz)


_rng = rng_for(200)
# a > 1/2 keeps the scalar twin's a - 1/2 positive; every other draw has d0 = 0.
SETS = [PhysicalParams(hbar=1, m=1, c=1, e=1, k=1.5, pz=0.8, ell=0.7),
        PhysicalParams(hbar=0.9, m=1.3, c=1.1, e=1, k=2, pz=0.6, ell=-0.4),
        PhysicalParams(hbar=1, m=1, c=1, e=1, k=1.5, pz=0.8, ell=0),
        *(twin(DiracParams(float(_rng.uniform(0.6, 2.5)), float(_rng.uniform(0.3, 2.0)),
                           0.0 if i % 2 else float(_rng.uniform(-1.5, 1.5)),
                           float(_rng.uniform(0.1, 1.5)))) for i in range(4))]


def _wave(radial, phys: PhysicalParams, spin, h: float):
    """Values at the points, and central first and second differences along x,
    y, z, of radial(rho)/sqrt(rho) times the z and angular phases (7-point stencil)."""
    x, y, z = np.moveaxis(POINTS + h * _STEPS, -1, 0)
    rho = np.hypot(x, y)
    phase = (phys.ell / phys.hbar - 0.5 * spin) * np.arctan2(y, x) + phys.pz * z / phys.hbar
    psi = np.exp(1j * phase) * radial(rho) / np.sqrt(rho)
    centre, plus, minus = psi[..., 0, :], psi[..., 1:4, :], psi[..., 4:, :]
    return centre, (plus - minus) / (2 * h), (plus + minus - 2 * centre[..., None, :]) / h ** 2


def dirac_residual(phys: PhysicalParams, fam: str, n: int, coupling: float = 1.0) -> float:
    """||H psi - E psi|| / ||E psi|| at the points, E = hbar c family_eigenvalue,
    H = c alpha.(p - coupling (k/rho) z^) + beta m c^2."""
    p = phys.to_dirac()
    chain = dc.normalize_spinor(dc.eigenfunction_chain(p, n, fam))
    theta = math.atan2(-phys.k, phys.ell)
    rotation = math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * _M["SIGMA1"]
    psi, grad, _ = _wave(lambda rho: np.einsum("ij,j...->i...", rotation, chain.eval_array(rho)),
                         phys, SPIN, H_DIRAC)
    kz = coupling * phys.k / np.hypot(*POINTS.T[:2])
    h_psi = phys.c * (sum(a @ (-1j * phys.hbar * grad[:, i]) for i, a in enumerate(ALPHA))
                      - kz * (ALPHA[2] @ psi)) + phys.m * phys.c ** 2 * (_M["BETA"] @ psi)
    e_psi = phys.hbar * phys.c * dc.family_eigenvalue(p, n, fam) * psi
    return float(np.linalg.norm(h_psi - e_psi) / np.linalg.norm(e_psi))


def scalar_residual(phys: PhysicalParams, n: int, coupling: float = 1.0) -> float:
    """As dirac_residual, for H = (p - coupling (k/rho) z^)^2 / 2m against
    spectrum_physical, with a 7-point Laplacian."""
    g = nr.normalize(nr.eigenfunction(phys.to_nr(), n))
    psi, grad, second = _wave(g.eval_array, phys, 0.0, H_SCALAR)
    kz = coupling * phys.k / np.hypot(*POINTS.T[:2])
    # (pz - kz)^2 = pz^2 - 2 kz pz + kz^2, with pz = -i hbar d/dz
    h_psi = (-phys.hbar ** 2 * second.sum(axis=0) + 2j * phys.hbar * kz * grad[2]
             + kz ** 2 * psi) / (2 * phys.m)
    e_psi = nr.spectrum_physical(phys, n) * psi
    return float(np.linalg.norm(h_psi - e_psi) / np.linalg.norm(e_psi))


@pytest.mark.parametrize("phys", SETS)
def test_dirac_hamiltonian(phys):
    for fam in FAMILIES:
        for n in LEVELS:
            assert dirac_residual(phys, fam, n) <= DIRAC_BOUND, (fam, n)
            assert dirac_residual(phys, fam, n, coupling=-1.0) >= 0.1, (fam, n)


@pytest.mark.parametrize("phys", SETS)
def test_scalar_hamiltonian(phys):
    for n in LEVELS:
        assert scalar_residual(phys, n) <= SCALAR_BOUND, n
        assert scalar_residual(phys, n, coupling=-1.0) >= 0.1, n


def test_twin_inverts_to_dirac():
    # The worst relative difference measured is 4.5e-16.
    with pytest.raises(ValueError, match="m must be positive"):
        twin(DiracParams(1.0, 1.0, 0.5, 0.0))
    rng = rng_for(201)
    for i in range(200):
        p = DiracParams(float(rng.uniform(0.05, 8.0)), float(10 ** rng.uniform(-2, 2)),
                        0.0 if i % 5 == 0 else float(rng.uniform(-2.0, 2.0)),
                        float(rng.uniform(0.01, 2.0)))
        back = twin(p).to_dirac()
        assert p.d0 != 0.0 or twin(p).ell == 0.0
        for x, y in zip(back._values(back), p._values(p)):
            assert abs(x - y) <= 4 * np.finfo(float).eps * abs(y), (p, back)
