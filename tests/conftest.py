"""pytest setup: Hypothesis keeps its caches out of the source tree.

The property tests run without an example database, but Hypothesis still
caches the constants it reads from local modules; they go to the system
temporary directory unless ``HYPOTHESIS_STORAGE_DIRECTORY`` is already set.
"""

import os
import tempfile

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "schurq-hypothesis"))
