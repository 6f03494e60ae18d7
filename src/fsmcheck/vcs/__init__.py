"""The vehicle-control demo bundle. Its generator is `vcs.generate`, which
the CLI imports for `gen-vcs` only; the mutant names live here, for the
choices of `gen-vcs --mutant`."""

MUTANTS = ("none", "swapped-fallback-priority")
