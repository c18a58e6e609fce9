"""Shared fixtures: the four benchmark converter setups used throughout."""

import dataclasses
import glob
import math
import os

import pytest

from subharmonic import ACMC, RLP, VMC3, BuckParams

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.fixture(scope="session")
def ex1():
    # fast RL stage, proportional current feedback
    return BuckParams(v_s=10.0, v_r=7.5, V_l=0.0, V_h=1.0,
                      f_s=1e6, L=1e-6, R=1.0)


@pytest.fixture(scope="session")
def ex2():
    return BuckParams(v_s=14.0, v_r=0.5, V_l=0.0, V_h=1.0, f_s=50e3,
                      L=46.1e-6, R=1.0, C=380e-6, R_c=0.02)


@pytest.fixture(scope="session")
def sch2():
    return ACMC(R_s=0.1, K_c=75506.0, z_c=5652.9,
                omega_p=0.3 * 2.0 * math.pi * 50e3)


@pytest.fixture(scope="session")
def ex3():
    return BuckParams(v_s=16.0, v_r=3.3, V_l=0.0, V_h=1.5, f_s=300e3,
                      L=900e-9, R=0.4, C=990e-6, R_c=5e-3)


@pytest.fixture(scope="session")
def sch3(ex3):
    # compensator pole at half the switching frequency
    return VMC3(K_c=7.78e4, kappa_z=0.5, omega_p=0.5 * ex3.omega_s)


@pytest.fixture(scope="session")
def sch4_at(ex3):
    def make(ratio):
        return VMC3(K_c=7.78e4, kappa_z=0.5, omega_p=ratio * ex3.omega_s)
    return make


@pytest.fixture(scope="session")
def cmc_zero_ramp():
    # flat modulator ramp: V_h = V_l, so the ramp term drops out entirely
    return BuckParams(v_s=10.0, v_r=3.0, V_l=0.0, V_h=0.0,
                      f_s=1e5, L=1e-4, R=1.0, C=100e-6)


@pytest.fixture(scope="session")
def rlp8():
    return RLP(k_p=8.0)


def config_path(name):
    return os.path.abspath(os.path.join(CONFIG_DIR, name))


def rescaled(params, scheme, volts=1.0, time=1.0):
    """The same loop with every voltage times volts and time stretched
    time-fold: f_s / time, L and C times time, and the compensator's z_c,
    omega_p and integrator gain K_c divided by time.  Its states scale
    with volts, its cycle map's multipliers and its period stay."""
    C = None if params.C is None else params.C * time
    params = dataclasses.replace(
        params, v_s=params.v_s * volts, v_r=params.v_r * volts,
        V_l=params.V_l * volts, V_h=params.V_h * volts,
        f_s=params.f_s / time, L=params.L * time, C=C)
    rates = {name: getattr(scheme, name) / time
             for name in ("z_c", "omega_p", "K_c") if hasattr(scheme, name)}
    return params, dataclasses.replace(scheme, **rates)


def config_names(pattern):
    """Sorted basenames of the configs matching pattern.  Raises when none
    does, so a checkout without them fails collection instead of quietly
    parametrizing a test over nothing."""
    names = sorted(os.path.basename(p) for p in glob.glob(config_path(pattern)))
    if not names:
        raise FileNotFoundError(f"no config matches {config_path(pattern)}")
    return names
