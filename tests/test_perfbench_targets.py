"""The benchmark's traced mode rebinds the names listed by
``perfbench.spans.targets``; each must still exist and be callable, or
``--trace 1`` runs and ``perfbench/selftest.py`` break."""

import mmclab.cli  # targets() reaches the sweep's names through mmclab.cli
import pytest
from perfbench.spans import targets


@pytest.mark.parametrize("namespace, attribute",
                         [(ns, attr) for ns, attr, _, _ in targets(mmclab)],
                         ids=[name for _, _, name, _ in targets(mmclab)])
def test_traced_name_is_callable(namespace, attribute):
    assert callable(getattr(namespace, attribute, None)), \
        f"{namespace.__name__}.{attribute} is gone"
