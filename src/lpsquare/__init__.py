"""Square-operator toolkit on periodic grids.

Subpackages: grid (sampled functions and cubes), weights (Muckenhoupt
functionals), kernels (admissible convolution profiles), operators
(vertical/conical square operators), oscillation (weighted mean-oscillation
norms), czd (stopping-time decomposition and distributional checks),
report (corpus and result tables), cli (command line entry points).
"""

__version__ = "0.1.0"

# The registry names of the kernels shipped in each dimension: those that
# certify, then the negative controls, which must not.  kernels builds
# them, and load_config refuses any other name without loading kernels.
SHIPPED_KERNELS = {
    1: (("poisson-derivative", "gauss-derivative", "hermite2"),
        ("nonvanishing-hat",)),
    2: (("poisson-derivative", "gauss-derivative"), ("gaussian-bump",)),
}
