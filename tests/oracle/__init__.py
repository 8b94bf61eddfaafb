"""The one generated-motion oracle; see :mod:`tests.oracle.fleet`."""
