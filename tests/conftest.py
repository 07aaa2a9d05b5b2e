import pytest

from lrcumulants.cumulants import _mobius_plan


@pytest.fixture
def fresh_mobius_plans(request):
    """An empty NC(n) plan memo before the test and again after it, so
    plans built under an injected defect never reach later tests."""
    _mobius_plan.cache_clear()
    request.addfinalizer(_mobius_plan.cache_clear)
