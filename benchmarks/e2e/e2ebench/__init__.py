"""Outside-in end-to-end benchmark of the public ``Slider`` API.

Everything here drives ``repro`` from outside: nothing under ``src/``
imports this package and this package edits nothing under ``src/``.
See ``benchmarks/e2e/README.md``.
"""
