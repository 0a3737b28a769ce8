"""pytest setup: Hypothesis keeps its caches out of the source tree, and
fixtures count syntheses and channel extractions.

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


@pytest.fixture
def extraction_runs(monkeypatch) -> list:
    """A list that grows by one each time ``channels._extract`` runs: each
    extraction of a ``ChoiMatrix``, which ``ChoiMatrix._extraction`` looks
    the name up for when it is first read."""
    import schurq.channels as channels

    runs = []
    extract = channels._extract

    def counted_extract(*args, **kwargs):
        runs.append(None)
        return extract(*args, **kwargs)

    monkeypatch.setattr(channels, "_extract", counted_extract)
    return runs
