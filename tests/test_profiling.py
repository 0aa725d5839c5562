"""The profiling wrapper forwards the whole kernel interface.

:class:`~repro.backends.profiling.ProfilingKernel` must run exactly the
code the wrapped kernel runs: a public kernel method it failed to forward
would silently run the base-class default instead (the per-entry
``load_postings`` loop, say) and profile a different program.
"""

from __future__ import annotations

import inspect
from unittest import mock

import pytest

from repro.backends import available_backends, get_backend
from repro.backends.base import SimilarityKernel
from repro.backends.profiling import ProfilingKernel
from repro.core.join import create_join
from tests.conftest import random_vectors

PUBLIC_METHODS = sorted(
    name for name, value in vars(SimilarityKernel).items()
    if not name.startswith("_") and callable(value)
    and not isinstance(value, classmethod))


def placeholder_arguments(name):
    """``(args, kwargs)`` with a distinct placeholder for every parameter
    of the interface method ``name``."""
    parameters = list(inspect.signature(
        getattr(SimilarityKernel, name)).parameters.values())[1:]
    args = [mock.MagicMock(name=parameter.name) for parameter in parameters
            if parameter.kind is not parameter.KEYWORD_ONLY]
    kwargs = {parameter.name: mock.MagicMock(name=parameter.name)
              for parameter in parameters
              if parameter.kind is parameter.KEYWORD_ONLY}
    return args, kwargs


@pytest.mark.parametrize("name", PUBLIC_METHODS)
def test_every_kernel_method_reaches_the_wrapped_kernel(name):
    inner = mock.MagicMock(spec=SimilarityKernel)
    inner.name = "mock"
    profiled = ProfilingKernel(inner)
    args, kwargs = placeholder_arguments(name)
    getattr(profiled, name)(*args, **kwargs)
    getattr(inner, name).assert_called_once_with(*args, **kwargs)


@pytest.mark.skipif("numpy" not in available_backends(),
                    reason="NumPy backend unavailable")
def test_a_kernel_switch_onto_a_profiled_kernel_loads_in_bulk():
    vectors = random_vectors(80, seed=5)
    expected = create_join("STR-L2AP", 0.6, 0.05,
                           backend="numpy").run_to_list(vectors)
    join = create_join("STR-L2AP", 0.6, 0.05, backend="numpy")
    pairs = [pair for vector in vectors[:40] for pair in join.process(vector)]
    kernel = ProfilingKernel(get_backend("numpy")())
    join.index.switch_kernel(kernel)
    # One bulk posting load and one bulk metadata announcement, both
    # run by the wrapped kernel.
    assert kernel.stage_calls["maintenance"] == 2
    pairs += [pair for vector in vectors[40:] for pair in join.process(vector)]
    pairs += join.flush()
    assert pairs == expected
