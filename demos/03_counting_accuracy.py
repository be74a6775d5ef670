#!/usr/bin/env python3
"""How counting precision scales with the phase register.

The count of flag-set products is read out by phase estimation on the
search iterate.  More precision qubits shrink the error bound roughly by
half per qubit; once the bound drops below 1/2 the rounded estimate can be
trusted outright.  The second half shows where the probability mass of the
phase register actually sits.
"""

import numpy as np

from q3pen import PriceScenario, brute_force_count, error_bound, quantum_count
from q3pen.counting import CountingParams, outcome_to_theta, phase_register_distribution, theta_to_count

scenario = PriceScenario(A=(3, 2, 5, 4, 7, 6), B=(2, 2, 5, 5, 6, 6), epsilon=5)
truth = brute_force_count(scenario)
print(f"true count: {truth} of {scenario.N}\n")

print(" t   m_hat   error bound   phase-register shots")
for t in range(3, 8):
    est = quantum_count(scenario, CountingParams(t=t, shots=11, rng_seed=2))
    print(f"{t:2d}   {est.m_hat:3d}     {est.delta:9.4f}   {est.outcomes}")
print()

t = 6
probs = phase_register_distribution(scenario, t=t)
print(f"phase-register distribution at t = {t} (outcomes above 2% mass):")
# conjugate outcomes have equal mass up to rounding: list each pair by omega
for omega in np.argsort(-probs.round(12), kind="stable"):
    if probs[omega] < 0.02:
        break
    theta = outcome_to_theta(int(omega), t)
    print(f"  omega = {int(omega):2d}  p = {probs[omega]:.3f}  -> rotation {theta:.3f} rad"
          f"  -> count {theta_to_count(theta, scenario.N)}")
print()
print("the two peaks are the conjugate eigenphases; both fold to the same count")
print(f"error bound at t = 20: {error_bound(20, scenario.N, truth):.2e} (exact after rounding)")
