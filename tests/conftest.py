import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# The corpus determinantal ring, defined over Q with the 81*E^4
# perturbation; it certifies klt at p = 3 with a witness at e = 3.
DET5_KLT_INPUT = {
    "variables": ["A", "B", "C", "D", "E"],
    "coefficient": "Q",
    "relations": [
        "(A^2 + 81*E^4)*A^2 - B*C",
        "(A^2 + 81*E^4)*(B^4 - D) - D*C",
        "B*(B^4 - D) - D*A^2",
    ],
    "test_element": "B",
    "prime": 3,
    "e_max": 3,
    "assert_q_gorenstein": True,
}


@pytest.fixture(scope="session")
def det5_klt_certificate():
    """The e <= 3 klt certificate of DET5_KLT_INPUT (shared: it is slow)."""
    from fsing.certify import certify_klt, parse_job

    return certify_klt(parse_job(DET5_KLT_INPUT, "klt"))
