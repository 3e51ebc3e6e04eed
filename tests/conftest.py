"""Shared test settings: a test run writes nothing into the checkout.

Hypothesis keeps no example database, and the constants it caches from the
code under test go to a temporary folder that is deleted when the run ends.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("no-database", database=None)
settings.load_profile("no-database")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
