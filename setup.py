"""Legacy setup shim.

This environment has setuptools but no ``wheel`` package, so PEP 660
editable installs (``pip install -e .``) fail while preparing metadata.
This shim enables the legacy editable path::

    pip install -e . --no-build-isolation --no-use-pep517

There is no other project metadata: setuptools discovers the ``repro``
package under ``src/`` on its own, so the install is the package alone,
with no extras and no console script (run the CLI as
``python -m repro.cli``).
"""

from setuptools import setup

setup()
