"""Benchmark-suite plumbing.

Puts this directory on sys.path (so benches share ``helpers``) and
gives every benchmark its ``golden`` fixture: the text it reproduces,
compared with ``golden/<test name>.txt`` by ``golden.check()``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import Golden  # importable only after the insert above


@pytest.fixture
def golden(request):
    return Golden(request.node.name)
