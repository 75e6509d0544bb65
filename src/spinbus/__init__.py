"""Eigenmode-mediated quantum state transfer through unpolarized spin chains.

Submodules:

- ``chains``: coupling patterns, disorder realizations, Hamiltonian matrices
- ``dynamics``: propagators, resonant-mode selection by error budget, pairing dynamics
- ``fidelity``: closed-form channel fidelities, perturbation theory
- ``ed``: exact many-body channel fidelities (sector-blocked dense engine)
- ``mirror``: stabilizer simulation of the globally-pulsed mirror architecture
- ``cli``: reproducible experiment sweeps with CSV output
"""

__version__ = "0.1.0"

from . import chains, dynamics, ed, fidelity, mirror  # noqa: F401
