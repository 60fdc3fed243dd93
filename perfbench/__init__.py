"""End-to-end benchmark of the reproduction: CLI export, design sweeps,
service traffic and the functional NPB suite.  See ``README.md``."""
