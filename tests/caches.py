"""The per-process compile caches, emptied so that a test sees cold builds."""

import qregen.cli
import qregen.css
import qregen.gf
import qregen.pmcode


def clear_caches():
    """Forget every proven prime field and its table of inverses, interned
    params object (and with it each code's tables: powers, sub-file family,
    packing and pair indices), cached CSS basis, decode plan, parsed
    storage file, and the writer's compiled layouts and their columns."""
    qregen.cli._STORED.clear()
    qregen.cli._column.cache_clear()
    qregen.cli._list_doc.cache_clear()
    qregen.cli._storage_doc.cache_clear()
    qregen.cli._transcript_doc.cache_clear()
    qregen.css._BASES.clear()
    qregen.gf._inverses.cache_clear()
    qregen.pmcode._compiled_plan.cache_clear()
    qregen.pmcode._field.cache_clear()
    qregen.pmcode._interned.cache_clear()
