"""The per-process compile caches, emptied so that a test sees cold builds."""

import qregen.css
import qregen.pmcode


def clear_caches():
    """Forget every cached CSS basis, u scaling and decode plan."""
    qregen.css._BASES.clear()
    qregen.css._scalings.cache_clear()
    qregen.pmcode._compiled_plan.cache_clear()
