"""Known defects in the program that the benchmark works around.

Each is a strict xfail: the change that fixes the defect makes the test
pass, which fails the suite until the marker is removed.
"""

import pytest

from repro.design.pareto import sample_design_space
from repro.errors import ConfigurationError


@pytest.mark.xfail(
    strict=True,
    raises=ConfigurationError,
    reason="sample_design_space catches TimingError only, but a move can "
    "raise ConfigurationError (L2 smaller than L1), so `repro pareto gzip "
    "--samples 512` exits 2; pareto-batch builds its candidates itself",
)
def test_sample_design_space_survives_configuration_errors():
    configs = sample_design_space(512, seed=0)  # `repro pareto`'s default seed
    assert len(configs) == 2 * 512
