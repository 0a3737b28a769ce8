"""pytest setup: Hypothesis keeps its caches out of the source tree, and a
fixture counts syntheses.

The property tests run without an example database, but Hypothesis still
caches the constants it reads from local modules; they go to the system
temporary directory unless ``HYPOTHESIS_STORAGE_DIRECTORY`` is already set.
"""

import os
import tempfile

import pytest

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "schurq-hypothesis"))


@pytest.fixture
def synthesis_runs(monkeypatch) -> list:
    """A list that grows by one each time ``params._synthesize`` runs: in
    ``forward`` and ``cholesky_factor``, each run of the synthesis band loop.
    ``SchurParams._synthesis`` looks the name up when it is first read."""
    import schurq.params as params

    runs = []
    synthesize = params._synthesize

    def counted_synthesize(*args, **kwargs):
        runs.append(None)
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(params, "_synthesize", counted_synthesize)
    return runs
