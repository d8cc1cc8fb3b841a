"""Legacy shim for offline installs without the ``wheel`` package.

All metadata lives in pyproject.toml.  Where ``wheel`` is missing and
nothing can be downloaded, pip refuses both the PEP 517 editable
install and ``--no-use-pep517`` (which needs ``wheel`` too); run
``python setup.py develop`` instead, which reads the same metadata.
Everywhere else use ``python -m pip install -e ".[test]"``.
"""

from setuptools import setup

setup()
