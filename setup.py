"""Legacy setup shim.

All metadata lives in ``pyproject.toml`` (name, version, the ``repro``
console script, pytest settings); ``pip install -e .`` reads it through
setuptools' PEP 517 backend.  The execution environment has no network
and no ``wheel`` package, so PEP 517 builds cannot run there; this shim
keeps ``python setup.py develop`` available as the offline path.
"""

from setuptools import setup

setup()
