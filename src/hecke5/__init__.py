"""Exact arithmetic, membership testing and congruence-subgroup index
computation for the Hecke group generated by S = [[0,1],[-1,0]] and
T = [[1,L],[0,1]] over Z[L], where L is the golden ratio."""

__version__ = "0.1.0"
