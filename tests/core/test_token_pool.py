"""PIM token pool: interrupt-driven reduction."""

import pytest

from repro.core.token_pool import PimTokenPool


class TestReduction:
    def test_paper_formula(self):
        # PTP = min(PTP - CF, #issuedToken)
        pool = PimTokenPool(size=20, issued=10)
        assert pool.reduce(4) == 10       # min(16, 10)
        pool2 = PimTokenPool(size=20, issued=19)
        assert pool2.reduce(4) == 16      # min(16, 19)

    def test_never_negative(self):
        pool = PimTokenPool(size=2, issued=1)
        assert pool.reduce(10) == 0

    def test_outstanding_tokens_not_revoked(self):
        pool = PimTokenPool(size=10, issued=10)
        pool.reduce(6)
        # issued stays at 10 until blocks drain.
        assert pool.issued == 10

    def test_negative_cf_rejected(self):
        with pytest.raises(ValueError):
            PimTokenPool(size=5).reduce(-1)


class TestValidation:
    def test_negative_size(self):
        with pytest.raises(ValueError):
            PimTokenPool(size=-1)

    def test_issued_bounds(self):
        with pytest.raises(ValueError):
            PimTokenPool(size=2, issued=3)
